// One-vs-one multiclass SVM with majority voting, plus built-in feature
// standardisation.  This is the classifier RE uses to map a variation
// window sample to a label w0 (entered) / w1..wk (left workstation i).
//
// Layout (libsvm's shared kernel cache, Chang & Lin 2011): the pairwise
// machines draw their support vectors from one training set, so most
// rows serve several machines.  The model keeps one pool of distinct
// support-vector rows (deduplicated by exact bytes), stored transposed
// (component-major) so a query's kernel row against the whole pool is
// one lane-wide dot_block / sqdist_block pass with the query splatted
// and the rows in lanes.  Each machine keeps only its class pair, bias,
// pool row indices and alpha*y weights, and sums bias + sum w * K[row]
// in its own support-vector order — per row the same products in the
// same order a per-machine BinarySvm expansion adds, so the decisions,
// votes and margins are bit-identical to it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fadewich/common/flat_matrix.hpp"
#include "fadewich/ml/dataset.hpp"
#include "fadewich/ml/scaler.hpp"
#include "fadewich/ml/svm.hpp"

namespace fadewich::exec {
class ThreadPool;
}  // namespace fadewich::exec

namespace fadewich::ml {

/// The trained parameters of a MulticlassSvm for persistence: the class
/// list, the fitted scaler, and every pairwise machine keyed by its
/// (first, second) class pair, each with its own support rows (the
/// shared pool is re-expanded on export and rebuilt on import, so the
/// persisted form is per machine).
struct MulticlassSvmState {
  struct PairwiseMachine {
    int first_class = 0;
    int second_class = 0;
    BinarySvmState svm;
  };
  std::vector<int> classes;
  std::vector<double> scaler_means;
  std::vector<double> scaler_scales;
  std::vector<PairwiseMachine> machines;
};

class MulticlassSvm {
 public:
  explicit MulticlassSvm(SvmConfig config = {});

  /// Train on the dataset.  Labels may be any non-negative integers; at
  /// least one sample is required.  With a single class present, predict()
  /// always returns that class (no pairwise machines are trained).
  ///
  /// The pairwise binary problems are independent SMO solves; they train
  /// concurrently on `pool` (the process-wide pool when nullptr).  Each
  /// machine is seeded from the config alone, so the trained model is
  /// identical at any thread count.
  void train(const Dataset& data, exec::ThreadPool* pool = nullptr);

  /// Predict the class of a sample.  Requires trained.  The single-query
  /// special case of predict_block, so both paths agree bit-for-bit.
  int predict(const std::vector<double>& x) const;

  /// Predict every sample in one pass: out[i] = class of xs[i].  Each
  /// query's kernel row is computed once over the shared support-vector
  /// pool and read by every pairwise machine; scratch comes from the
  /// calling thread's arena, so steady-state batches do not allocate.
  /// Requires trained and out.size() == xs.size().
  void predict_block(const std::vector<std::vector<double>>& xs,
                     std::span<int> out) const;

  /// As above, with the queries given as one packed row-major span of
  /// `count` rows of feature width (e.g. scratch-arena or FlatMatrix
  /// storage), skipping the packing copy.
  void predict_block(std::span<const double> xs, std::size_t count,
                     std::span<int> out) const;

  /// The one-vs-one tally behind predict_block, for `count` packed rows:
  /// votes[r * k + c] counts the pairwise wins of classes()[c] for row r
  /// and margins[r * k + c] sums their |decision| in machine order
  /// ((first, second) ascending), k = classes().size().  A decision >= 0
  /// is a win for the pair's first class.  Requires trained and
  /// votes.size() == margins.size() == count * k.
  void tally_block(std::span<const double> xs, std::size_t count,
                   std::span<int> votes, std::span<double> margins) const;

  /// Distinct support-vector rows the machines share.  Requires trained.
  std::size_t pool_size() const { return pool_t_.cols(); }

  /// Accuracy over a test set.  Requires trained and non-empty test set.
  double accuracy(const Dataset& test) const;

  bool trained() const { return trained_; }
  const std::vector<int>& classes() const { return classes_; }

  /// Trained parameters for persistence.  Requires trained.
  MulticlassSvmState export_state() const;

  /// Restore a trained model from persisted state.  Throws
  /// fadewich::Error on inconsistent state (no classes, wrong pairwise
  /// machine set, unknown class in a pair, an empty or ragged expansion,
  /// support rows of another width than the scaler's) so corrupt
  /// snapshots fail loudly instead of voting with a half-restored model.
  void import_state(MulticlassSvmState state);

 private:
  // One pairwise machine over the pool: class indices into classes_ (a
  // decision >= 0 votes for `first`), its bias, and its expansion terms
  // [begin, end) of term_rows_ / term_weights_ in support-vector order.
  struct Machine {
    std::size_t first = 0;
    std::size_t second = 0;
    double bias = 0.0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void assemble(std::vector<MulticlassSvmState::PairwiseMachine> machines,
                std::size_t dim);
  void tally_rows(const double* xs, std::size_t stride, std::size_t count,
                  int* votes, double* margins) const;
  void predict_rows(const double* xs, std::size_t stride,
                    std::size_t count, int* out) const;

  SvmConfig config_;
  bool trained_ = false;
  std::vector<int> classes_;
  StandardScaler scaler_;
  // Distinct support rows, transposed: pool_t_.at(d, u) is component d of
  // pool row u, so a lane-wide kernel pass walks the rows in lanes.
  common::FlatMatrix pool_t_;
  std::vector<Machine> machines_;  // (first, second) ascending
  std::vector<std::uint32_t> term_rows_;  // pool row of each term
  std::vector<double> term_weights_;      // alpha_i * y_i of each term
};

}  // namespace fadewich::ml
