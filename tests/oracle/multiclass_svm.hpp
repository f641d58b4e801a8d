// Test oracle: one-vs-one voting as MulticlassSvm ran it before the shared
// support-vector pool — machine-major, every pairwise machine its own
// BinarySvm whose decision_block streams that machine's support rows for
// the whole batch, then the votes and |decision| margins tallied in
// (first, second) order.  Scratch comes from the thread's arena, as it
// did in the library.
//
// ml::MulticlassSvm computes each query's kernel row once over a pool of
// distinct rows instead; the differential tests require its labels,
// votes and margins to equal these bit for bit, and bench_micro_hotpaths
// times this path as its re_decision row's old side.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "fadewich/ml/multiclass_svm.hpp"
#include "fadewich/ml/scaler.hpp"
#include "fadewich/ml/svm.hpp"

namespace fadewich::oracle {

class MachineMajorSvm {
 public:
  /// Rebuilds the scaler and one BinarySvm per pairwise machine from a
  /// persisted model.  Requires a state MulticlassSvm::import_state takes.
  MachineMajorSvm(const ml::MulticlassSvmState& state,
                  ml::SvmConfig config);

  /// votes[r * k + c] / margins[r * k + c] for class c of row r, as
  /// MulticlassSvm::tally_block defines them.
  void tally(std::span<const double> xs, std::size_t count,
             std::span<int> votes, std::span<double> margins) const;

  /// The most votes, ties to the larger margin, then the smaller class.
  void predict(std::span<const double> xs, std::size_t count,
               std::span<int> out) const;

  std::size_t classes() const { return classes_.size(); }

 private:
  struct Machine {
    std::size_t first;
    std::size_t second;
    ml::BinarySvm svm;
  };
  std::vector<int> classes_;
  ml::StandardScaler scaler_;
  std::vector<Machine> machines_;  // (first, second) ascending
};

}  // namespace fadewich::oracle
