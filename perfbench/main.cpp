// perfbench: end-to-end benchmark of the FADEWICH live deauthentication
// path with a per-layer ledger.
//
//   perfbench --workload <office_live|office_hostile|campus_fleet>
//             --seed <n> --seconds <s> --trace <0|1>
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, the per-layer
// ledger with --trace 1).  Exits nonzero when an output check fails.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <office_live|office_hostile|"
               "campus_fleet> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return usage();

  try {
    perfbench::Result result;
    if (args.workload == "office_live") {
      result = perfbench::run_office_live(args);
    } else if (args.workload == "office_hostile") {
      result = perfbench::run_office_hostile(args);
    } else if (args.workload == "campus_fleet") {
      result = perfbench::run_campus_fleet(args);
    } else {
      return usage();
    }
    perfbench::print_result(result, args.trace);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
