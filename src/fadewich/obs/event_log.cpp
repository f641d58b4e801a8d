#include "fadewich/obs/event_log.hpp"

#include <cstdio>
#include <ostream>

#include "fadewich/common/error.hpp"

namespace fadewich::obs {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

namespace detail {

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace detail

std::string to_json_line(const Event& event) {
  std::string out;
  out += "{\"seq\":" + std::to_string(event.seq);
  out += ",\"severity\":\"";
  out += severity_name(event.severity);
  out += "\",\"tick\":" + std::to_string(event.tick);
  out += ",\"component\":\"";
  detail::append_json_escaped(out, event.component);
  out += "\",\"message\":\"";
  detail::append_json_escaped(out, event.message);
  out += "\"";
  for (const auto& [key, value] : event.fields) {
    out += ",\"";
    detail::append_json_escaped(out, key);
    out += "\":\"";
    detail::append_json_escaped(out, value);
    out += "\"";
  }
  out += "}";
  return out;
}

EventLog::EventLog() : EventLog(Config{}) {}

EventLog::EventLog(Config config) : config_(config) {
  if (config_.capacity < 1) {
    throw Error("obs event log: capacity must be >= 1");
  }
}

void EventLog::log(Severity severity, std::string component,
                   std::string message, Tick tick, EventFields fields) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Event event;
  event.seq = next_seq_++;
  event.severity = severity;
  event.tick = tick;
  event.component = std::move(component);
  event.message = std::move(message);
  event.fields = std::move(fields);
  if (sink_ != nullptr) {
    *sink_ << to_json_line(event) << '\n';
  }
  ring_.push_back(std::move(event));
  while (ring_.size() > config_.capacity) {
    ring_.pop_front();
    ++evicted_;
  }
}

std::vector<Event> EventLog::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t EventLog::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t EventLog::evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

void EventLog::set_sink(std::ostream* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink;
}

}  // namespace fadewich::obs
