// Prometheus text-exposition grammar checks for every scrape the suite
// builds: metric names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names
// [a-zA-Z_][a-zA-Z0-9_]* with quoted, escaped values, each family has
// exactly one `# TYPE`, and every sample comes after its family's
// `# TYPE` (a histogram's _bucket/_sum/_count samples belong to it).
#pragma once

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace fadewich::test {

inline bool is_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (!(letter || c == '_' || c == ':' || (digit && i > 0))) return false;
  }
  return true;
}

inline bool is_label_name(const std::string& name) {
  return is_metric_name(name) && name.find(':') == std::string::npos;
}

inline bool is_sample_value(const std::string& value) {
  if (value == "+Inf" || value == "-Inf" || value == "NaN") return true;
  if (value.empty()) return false;
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  return end == value.c_str() + value.size();
}

/// Index just past the `}` closing a label set whose first label starts
/// at `pos`, or npos when the set is malformed.
inline std::size_t skip_labels(const std::string& line, std::size_t pos) {
  while (pos < line.size() && line[pos] != '}') {
    const std::size_t eq = line.find('=', pos);
    if (eq == std::string::npos || !is_label_name(line.substr(pos, eq - pos)) ||
        eq + 1 >= line.size() || line[eq + 1] != '"') {
      return std::string::npos;
    }
    pos = eq + 2;
    for (; pos < line.size() && line[pos] != '"'; ++pos) {
      if (line[pos] != '\\') continue;
      const char next = pos + 1 < line.size() ? line[pos + 1] : ' ';
      if (next != '\\' && next != '"' && next != 'n') return std::string::npos;
      ++pos;
    }
    if (pos >= line.size()) return std::string::npos;  // unterminated value
    ++pos;                                              // closing quote
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  return pos < line.size() ? pos + 1 : std::string::npos;
}

/// Every grammar violation in `text`, one message each; empty when the
/// exposition is well formed.
inline std::vector<std::string> exposition_errors(const std::string& text) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> types;  // family -> declared type
  const auto family_of = [&types](const std::string& sample) {
    if (types.count(sample) > 0) return sample;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      if (sample.size() > suffix.size() && sample.ends_with(suffix)) {
        const std::string base =
            sample.substr(0, sample.size() - suffix.size());
        const auto it = types.find(base);
        if (it != types.end() && it->second == "histogram") return base;
      }
    }
    return std::string();
  };

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.starts_with("# TYPE ") || line.starts_with("# HELP ")) {
      std::istringstream words(line.substr(7));
      std::string name, type;
      words >> name >> type;
      if (!is_metric_name(name)) {
        errors.push_back("illegal metric name: " + line);
      } else if (line.starts_with("# TYPE ")) {
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          errors.push_back("unknown type: " + line);
        }
        if (!types.emplace(name, type).second) {
          errors.push_back("second # TYPE for " + name);
        }
      }
      continue;
    }
    if (line.starts_with("#")) continue;

    // A sample: name, optional {labels}, one space, value.
    std::size_t pos = line.find_first_of("{ ");
    const std::string name = line.substr(0, pos);
    if (!is_metric_name(name)) {
      errors.push_back("illegal metric name: " + line);
      continue;
    }
    if (pos != std::string::npos && line[pos] == '{') {
      pos = skip_labels(line, pos + 1);
    }
    if (pos == std::string::npos || pos >= line.size() || line[pos] != ' ') {
      errors.push_back("malformed labels or missing value: " + line);
      continue;
    }
    std::istringstream rest(line.substr(pos + 1));
    std::string value;
    rest >> value;
    if (!is_sample_value(value)) {
      errors.push_back("bad sample value: " + line);
    }
    if (family_of(name).empty()) {
      errors.push_back("sample before its family's # TYPE: " + line);
    }
  }
  return errors;
}

/// The violations joined for a gtest failure message.
inline std::string joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += e + "\n";
  return out;
}

}  // namespace fadewich::test
