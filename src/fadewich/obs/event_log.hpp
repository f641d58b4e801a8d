// Structured event log: severity-levelled, bounded, JSON-lines friendly.
//
// Events are small structured records — a component, a message, a tick,
// and optional key/value fields — kept in a bounded ring buffer (oldest
// evicted, eviction counted) so a chatty deployment can always show its
// recent history without unbounded memory.  An optional sink stream
// receives every accepted event immediately as one JSON line, which is
// the durable export path.  There is no process-wide log: each scraping
// owner (persist::SupervisedSystem, fleet::Fleet) holds one EventLog,
// reports its recent() in its scrape, and lends it out by reference so
// a caller can attach a sink.  The runtime obs toggle gates every call.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {

enum class Severity { kInfo, kWarn, kError };

namespace detail {
/// Append `s` to `out` with JSON string escaping (shared by the event
/// log's JSONL lines and the exporters).
void append_json_escaped(std::string& out, const std::string& s);
}  // namespace detail

const char* severity_name(Severity severity);

using EventFields = std::vector<std::pair<std::string, std::string>>;

struct Event {
  std::uint64_t seq = 0;  // monotone per log, survives ring eviction
  Severity severity = Severity::kInfo;
  Tick tick = 0;
  std::string component;
  std::string message;
  EventFields fields;
};

/// One event as a JSON line (no trailing newline); strings are escaped.
std::string to_json_line(const Event& event);

class EventLog {
 public:
  struct Config {
    std::size_t capacity = 1024;  // ring size, >= 1
  };

  EventLog();
  explicit EventLog(Config config);

  /// Record an event.  Dropped while the runtime toggle is off;
  /// accepted events enter the ring (evicting the oldest past capacity)
  /// and are written to the sink, if any, as one JSON line.
  void log(Severity severity, std::string component, std::string message,
           Tick tick = 0, EventFields fields = {});

  void info(std::string component, std::string message, Tick tick = 0,
            EventFields fields = {}) {
    log(Severity::kInfo, std::move(component), std::move(message), tick,
        std::move(fields));
  }
  void warn(std::string component, std::string message, Tick tick = 0,
            EventFields fields = {}) {
    log(Severity::kWarn, std::move(component), std::move(message), tick,
        std::move(fields));
  }
  void error(std::string component, std::string message, Tick tick = 0,
             EventFields fields = {}) {
    log(Severity::kError, std::move(component), std::move(message), tick,
        std::move(fields));
  }

  /// Ring contents, oldest first.
  std::vector<Event> recent() const;

  std::uint64_t accepted() const;  // events that entered the ring
  std::uint64_t evicted() const;   // events pushed out by capacity

  /// Stream receiving accepted events as JSON lines; nullptr disables.
  /// The stream must outlive the log (or a subsequent set_sink(nullptr)).
  void set_sink(std::ostream* sink);

 private:
  Config config_;
  mutable std::mutex mutex_;
  std::deque<Event> ring_;
  std::ostream* sink_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace fadewich::obs
