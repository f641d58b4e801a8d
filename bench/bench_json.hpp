// JsonReport: the one writer behind every BENCH_*.json trajectory file.
//
// Every report opens with the same stamp — schema, git sha, thread
// count, hardware concurrency, fast mode, the dispatched SIMD ISA, and
// whether the build is FADEWICH_NATIVE — so reports are attributable
// and the perf gate can refuse cross-ISA comparisons.  The sha comes
// from FADEWICH_GIT_SHA, else the configure-time sha, else "unknown".
// Doubles print one way (6 significant digits, `null` when not finite).
// A report that cannot be opened or fully written exits 1 naming the
// path, so CI never uploads a missing or truncated artifact.  The timing
// and ratio helpers below are shared by the benches that fill reports.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "fadewich/common/env.hpp"
#include "fadewich/common/simd.hpp"
#include "fadewich/obs/event_log.hpp"

namespace fadewich::bench {

/// FADEWICH_BENCH_FAST, read strictly: "1"/"on"/"true" shrink the
/// workloads, a malformed value throws.
inline bool fast_mode() {
  return common::env_flag("FADEWICH_BENCH_FAST").value_or(false);
}

inline std::string git_sha() {
  if (const auto env = common::env_raw("FADEWICH_GIT_SHA")) return *env;
#ifdef FADEWICH_BUILD_GIT_SHA
  return FADEWICH_BUILD_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Exit 1 naming `path` once `out` has failed to open or to write.
inline void exit_if_failed(const std::ofstream& out, const std::string& path) {
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
}

/// Write `text` to `path`, or exit 1 naming it.
inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  exit_if_failed(out, path);
}

/// A pretty-printed JSON object streamed to a file: field() and
/// begin_object(key)/begin_array(key) add members to the current
/// object, begin_object() adds an object to the current array, end()
/// closes the innermost container and close() the report.
class JsonReport {
 public:
  /// Opens `path` and writes the stamp.
  JsonReport(std::string path, std::string_view schema, std::size_t threads)
      : path_(std::move(path)), out_(path_) {
    exit_if_failed(out_, path_);
    out_.precision(6);
    open('{');
    field("schema", schema)
        .field("git_sha", git_sha())
        .field("threads", threads)
        .field("hardware_concurrency", std::thread::hardware_concurrency())
        .field("fast_mode", fast_mode())
        .field("simd_isa", simd::isa_name(simd::active_isa()))
#ifdef FADEWICH_NATIVE_BUILD
        .field("native", true);
#else
        .field("native", false);
#endif
  }

  template <typename T>
  JsonReport& field(std::string_view key, const T& v) {
    member(key);
    write(v);
    return *this;
  }
  JsonReport& begin_object(std::string_view key) {
    member(key);
    return open('{');
  }
  JsonReport& begin_array(std::string_view key) {
    member(key);
    return open('[');
  }
  JsonReport& begin_object() {
    element();
    return open('{');
  }

  JsonReport& end() {
    if (closers_.size() < 2) throw std::logic_error("JsonReport: end at root");
    return close_innermost();
  }

  /// Close the root object and the file; exit 1 naming the path if any
  /// write failed.
  void close() {
    if (closers_.size() != 1) {
      throw std::logic_error("JsonReport: close() with containers open");
    }
    close_innermost();
    out_ << '\n';
    out_.close();
    exit_if_failed(out_, path_);
  }

 private:
  JsonReport& open(char opener) {
    out_ << opener;
    closers_ += opener == '{' ? '}' : ']';
    empty_ = true;
    return *this;
  }

  JsonReport& close_innermost() {
    const char closer = closers_.back();
    closers_.pop_back();
    if (!empty_) newline();
    out_ << closer;
    empty_ = false;  // the enclosing container now holds this one
    return *this;
  }

  void element() {
    if (!empty_) out_ << ',';
    empty_ = false;
    newline();
  }

  void member(std::string_view key) {
    element();
    write(key);
    out_ << ": ";
  }

  void newline() { out_ << '\n' << std::string(2 * closers_.size(), ' '); }

  void write(bool v) { out_ << (v ? "true" : "false"); }
  void write(const char* s) { write(std::string_view(s)); }
  void write(std::string_view s) {
    std::string quoted = "\"";
    obs::detail::append_json_escaped(quoted, std::string(s));
    out_ << quoted << '"';
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void write(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(v)) {
        out_ << "null";
        return;
      }
    }
    out_ << v;
  }

  std::string path_;
  std::ofstream out_;
  std::string closers_;  // one '}' or ']' per open container
  bool empty_ = true;    // the innermost container has no members yet
};

/// Best-of-`reps` wall time of fn(), in milliseconds.
template <typename F>
double time_best_ms(int reps, F&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// `num / den`, or 0 when `den` is not positive (an untimed leg).
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// The timed-leg pair every throughput block repeats: `"seconds"` and
/// `"reports_per_sec"`.
inline void rate_fields(JsonReport& report, double seconds,
                        std::uint64_t reports) {
  report.field("seconds", seconds)
      .field("reports_per_sec", ratio(static_cast<double>(reports), seconds));
}

}  // namespace fadewich::bench
