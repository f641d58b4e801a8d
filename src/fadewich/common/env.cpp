#include "fadewich/common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "fadewich/common/error.hpp"

namespace fadewich::common {

namespace {

[[noreturn]] void malformed(const char* name, const std::string& value,
                            const std::string& expected) {
  throw Error(std::string(name) + "=\"" + value + "\": expected " +
              expected);
}

std::string lowered(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::size_t parse_count(const char* name, const std::string& value,
                        std::size_t max_value) {
  if (value.empty()) {
    malformed(name, value, "a positive integer");
  }
  for (char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      malformed(name, value, "a positive integer");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0' || parsed == 0 ||
      parsed > max_value) {
    malformed(name, value,
              "a positive integer <= " + std::to_string(max_value));
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

std::optional<std::string> env_raw(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

std::size_t env_count(const char* name, std::size_t fallback,
                      std::size_t max_value) {
  const std::optional<std::string> value = env_raw(name);
  if (!value) return fallback;
  return parse_count(name, *value, max_value);
}

std::optional<bool> env_flag(const char* name) {
  const std::optional<std::string> value = env_raw(name);
  if (!value) return std::nullopt;
  const std::string v = lowered(*value);
  if (v == "1" || v == "on" || v == "true") return true;
  if (v == "0" || v == "off" || v == "false") return false;
  malformed(name, *value, "one of 0|1|on|off|true|false");
}

std::optional<double> env_positive_real(const char* name) {
  const std::optional<std::string> value = env_raw(name);
  if (!value) return std::nullopt;
  // Pre-filter to plain decimal characters: strtod's laxness (inf/nan,
  // hex floats, leading whitespace) is exactly what a strict knob must
  // not accept.
  for (const char c : *value) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
        c != 'e' && c != 'E' && c != '+' && c != '-') {
      malformed(name, *value, "a finite positive number");
    }
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (errno != 0 || end == value->c_str() || *end != '\0' ||
      !(parsed > 0.0) || parsed > 1e12) {
    malformed(name, *value, "a finite positive number");
  }
  return parsed;
}

std::vector<std::size_t> env_count_list(const char* name,
                                        std::size_t max_value) {
  const std::optional<std::string> value = env_raw(name);
  std::vector<std::size_t> out;
  if (!value) return out;
  std::size_t start = 0;
  while (start <= value->size()) {
    const std::size_t comma = value->find(',', start);
    const std::size_t end =
        comma == std::string::npos ? value->size() : comma;
    out.push_back(
        parse_count(name, value->substr(start, end - start), max_value));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace fadewich::common
