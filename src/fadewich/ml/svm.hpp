// Soft-margin binary SVM trained with Sequential Minimal Optimization.
//
// RE (Section IV-D3) trains an SVM on the labeled variation-window samples.
// The implementation is a standard simplified-SMO dual solver supporting
// linear and RBF kernels; with tens-to-hundreds of samples and a few
// hundred features (the paper's regime: <=130 samples, 3 features per
// stream x m(m-1) streams) it converges in milliseconds.
//
// Layout: support vectors live in one row-major common::FlatMatrix so the
// kernel expansion streams them linearly.  decision_block() evaluates a
// whole batch of queries per pass over the support-vector matrix (queries
// blocked in groups of eight, support-vector-major inner loops); the
// scalar decision() is the one-row special case of the same code path, so
// batched and scalar results are bit-identical.  MulticlassSvm trains its
// pairwise machines with this class but predicts from its own shared
// pool of their support rows (multiclass_svm.hpp), adding each machine's
// terms in the order decision_block does, so a standalone BinarySvm over
// the same state gives the same decision bits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fadewich/common/flat_matrix.hpp"
#include "fadewich/common/rng.hpp"

namespace fadewich::ml {

enum class KernelType { kLinear, kRbf };

struct SvmConfig {
  KernelType kernel = KernelType::kLinear;
  double c = 1.0;            // soft-margin penalty, > 0
  double rbf_gamma = 0.1;    // RBF kernel width, > 0 (ignored for linear)
  double tolerance = 1e-3;   // KKT violation tolerance
  std::size_t max_passes = 20;    // passes with no alpha change before stop
  std::size_t max_iterations = 20000;  // hard cap on outer iterations
  std::uint64_t seed = 1;    // SMO partner-selection randomisation
};

/// The trained parameters of a BinarySvm, exposed for persistence: the
/// kernel expansion is fully determined by the support vectors, their
/// signed dual weights, and the bias.  Kept in the nested layout the
/// snapshot format serialises; the machine converts to/from its flat
/// layout at the import/export boundary.
struct BinarySvmState {
  std::vector<std::vector<double>> support_x;
  std::vector<double> support_alpha_y;  // alpha_i * y_i per support vector
  double bias = 0.0;
};

/// Binary SVM.  Labels are -1 / +1.
class BinarySvm {
 public:
  explicit BinarySvm(SvmConfig config = {});

  /// Train on the given samples.  `labels[i]` must be -1 or +1, both
  /// classes must be present, and all rows must share one width.
  void train(const std::vector<std::vector<double>>& features,
             const std::vector<int>& labels);

  /// Signed decision value w.x + b (kernel expansion).  Requires trained.
  double decision(const std::vector<double>& x) const;

  /// Batched decision values: out[i] = decision on xs.row(i).  One pass
  /// over the support-vector matrix serves the whole batch, so per-query
  /// memory traffic shrinks by the batch size.  Bit-identical to calling
  /// decision() per row.  Requires trained and out.size() == xs.rows().
  void decision_block(const common::FlatMatrix& xs,
                      std::span<double> out) const;

  /// As above, with the queries given as one packed row-major span of
  /// `count` rows of support-vector width (e.g. scratch-arena storage).
  void decision_block(std::span<const double> xs, std::size_t count,
                      std::span<double> out) const;

  /// Predicted label: +1 if decision >= 0 else -1.  Requires trained.
  int predict(const std::vector<double>& x) const;

  bool trained() const { return trained_; }

  /// Number of support vectors (alpha > 0).  Requires trained.
  std::size_t support_vector_count() const;

  const SvmConfig& config() const { return config_; }

  /// Trained parameters for persistence.  Requires trained.
  BinarySvmState export_state() const;

  /// Restore a trained machine from persisted state.  Throws
  /// fadewich::Error on inconsistent state (empty expansion, mismatched
  /// row widths or weight count) so corrupt snapshots fail loudly.
  void import_state(BinarySvmState state);

 private:
  double kernel(std::span<const double> a, std::span<const double> b) const;
  void decision_rows(const double* xs, std::size_t stride,
                     std::size_t count, double* out) const;

  SvmConfig config_;
  bool trained_ = false;
  common::FlatMatrix support_x_;         // one support vector per row
  std::vector<double> support_alpha_y_;  // alpha_i * y_i per support vector
  double bias_ = 0.0;
};

}  // namespace fadewich::ml
