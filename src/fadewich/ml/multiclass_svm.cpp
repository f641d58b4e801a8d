#include "fadewich/ml/multiclass_svm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/common/simd_kernels.hpp"
#include "fadewich/exec/thread_pool.hpp"

namespace fadewich::ml {

MulticlassSvm::MulticlassSvm(SvmConfig config) : config_(config) {}

void MulticlassSvm::train(const Dataset& data, exec::ThreadPool* pool) {
  FADEWICH_EXPECTS(!data.empty());
  const std::set<int> class_set(data.labels.begin(), data.labels.end());
  classes_.assign(class_set.begin(), class_set.end());
  scaler_.fit(data.features);
  const auto scaled = scaler_.transform(data.features);

  std::vector<std::pair<int, int>> pairs;
  for (std::size_t a = 0; a < classes_.size(); ++a) {
    for (std::size_t b = a + 1; b < classes_.size(); ++b) {
      pairs.emplace_back(classes_[a], classes_[b]);
    }
  }

  // Each one-vs-one problem reads the shared scaled matrix and trains a
  // self-seeded solver, so the problems run concurrently without any
  // cross-talk; collecting by pair index keeps the model order fixed.
  if (pool == nullptr) pool = &exec::ThreadPool::global();
  auto trained = pool->parallel_map(
      pairs, [&](const std::pair<int, int>& pair, std::size_t) {
        std::vector<std::vector<double>> x;
        std::vector<int> y;
        for (std::size_t i = 0; i < data.size(); ++i) {
          if (data.labels[i] == pair.first) {
            x.push_back(scaled[i]);
            y.push_back(1);
          } else if (data.labels[i] == pair.second) {
            x.push_back(scaled[i]);
            y.push_back(-1);
          }
        }
        BinarySvm svm(config_);
        svm.train(x, y);
        return svm.export_state();
      });

  std::vector<MulticlassSvmState::PairwiseMachine> machines;
  machines.reserve(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    machines.push_back(
        {pairs[p].first, pairs[p].second, std::move(trained[p])});
  }
  assemble(std::move(machines), scaler_.means().size());
  trained_ = true;
}

// Builds the shared pool from per-machine expansions whose rows the
// caller has checked are `dim` wide: machines sorted by class pair, each
// support row mapped to the pool row with the same bytes (appended when
// new), then the pool transposed component-major.
void MulticlassSvm::assemble(
    std::vector<MulticlassSvmState::PairwiseMachine> machines,
    std::size_t dim) {
  std::sort(machines.begin(), machines.end(),
            [](const auto& a, const auto& b) {
              return std::pair(a.first_class, a.second_class) <
                     std::pair(b.first_class, b.second_class);
            });
  const auto index_of = [&](int label) {
    return static_cast<std::size_t>(
        std::lower_bound(classes_.begin(), classes_.end(), label) -
        classes_.begin());
  };
  std::vector<double> rows;  // distinct rows, row-major
  std::size_t pool = 0;
  machines_.clear();
  term_rows_.clear();
  term_weights_.clear();
  for (const auto& machine : machines) {
    Machine m;
    m.first = index_of(machine.first_class);
    m.second = index_of(machine.second_class);
    m.bias = machine.svm.bias;
    m.begin = term_rows_.size();
    for (std::size_t i = 0; i < machine.svm.support_x.size(); ++i) {
      const double* row = machine.svm.support_x[i].data();
      std::size_t u = 0;
      while (u < pool &&
             std::memcmp(rows.data() + u * dim, row, dim * sizeof(double)) !=
                 0) {
        ++u;
      }
      if (u == pool) {
        rows.insert(rows.end(), row, row + dim);
        ++pool;
      }
      term_rows_.push_back(static_cast<std::uint32_t>(u));
      term_weights_.push_back(machine.svm.support_alpha_y[i]);
    }
    m.end = term_rows_.size();
    machines_.push_back(m);
  }
  pool_t_.resize(dim, pool);
  for (std::size_t u = 0; u < pool; ++u) {
    for (std::size_t d = 0; d < dim; ++d) {
      pool_t_.at(d, u) = rows[u * dim + d];
    }
  }
}

// One-vs-one tally over `count` packed unscaled rows.  Per row, the
// kernel against every pool row comes from one lane-wide pass (lane u
// sums its own components in dimension order — for a linear kernel the
// products s[d] * q[d] a BinarySvm expansion adds, for RBF the same
// squared differences, then libm exp once per pool row), and each
// machine accumulates bias + w * K[row] in its support-vector order, as
// BinarySvm::decision_block and rbf_accum_block do.  All temporaries
// come from the calling thread's arena.
void MulticlassSvm::tally_rows(const double* xs, std::size_t stride,
                               std::size_t count, int* votes,
                               double* margins) const {
  const std::size_t dim = scaler_.means().size();
  const std::size_t k = classes_.size();
  const std::size_t pool = pool_t_.cols();
  const simd::KernelTable& kt = simd::active_kernels();
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<double> scaled = arena.get<double>(count * dim);
  scaler_.transform_rows(xs, stride, count, scaled.data());
  const std::span<double> kernel = arena.get<double>(pool);
  std::fill(votes, votes + count * k, 0);
  std::fill(margins, margins + count * k, 0.0);

  for (std::size_t r = 0; r < count; ++r) {
    const double* q = scaled.data() + r * dim;
    std::fill(kernel.begin(), kernel.end(), 0.0);
    if (config_.kernel == KernelType::kLinear) {
      kt.dot_block(q, dim, pool_t_.data(), pool, pool, kernel.data());
    } else {
      kt.sqdist_block(q, dim, pool_t_.data(), pool, pool, kernel.data());
      for (double& t : kernel) t = std::exp(-config_.rbf_gamma * t);
    }
    int* row_votes = votes + r * k;
    double* row_margins = margins + r * k;
    for (const Machine& machine : machines_) {
      double d = machine.bias;
      for (std::size_t t = machine.begin; t < machine.end; ++t) {
        d += term_weights_[t] * kernel[term_rows_[t]];
      }
      const std::size_t winner = d >= 0.0 ? machine.first : machine.second;
      ++row_votes[winner];
      row_margins[winner] += std::abs(d);
    }
  }
}

void MulticlassSvm::predict_rows(const double* xs, std::size_t stride,
                                 std::size_t count, int* out) const {
  const std::size_t k = classes_.size();
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<int> votes = arena.get<int>(count * k);
  const std::span<double> margins = arena.get<double>(count * k);
  tally_rows(xs, stride, count, votes.data(), margins.data());

  for (std::size_t r = 0; r < count; ++r) {
    int best = classes_[0];
    int best_votes = -1;
    double best_margin = -1.0;
    for (std::size_t c = 0; c < k; ++c) {
      const int v = votes[r * k + c];
      const double m = margins[r * k + c];
      if (v > best_votes || (v == best_votes && m > best_margin)) {
        best = classes_[c];
        best_votes = v;
        best_margin = m;
      }
    }
    out[r] = best;
  }
}

void MulticlassSvm::tally_block(std::span<const double> xs,
                                std::size_t count, std::span<int> votes,
                                std::span<double> margins) const {
  FADEWICH_EXPECTS(trained_);
  const std::size_t k = classes_.size();
  FADEWICH_EXPECTS(xs.size() == count * scaler_.means().size());
  FADEWICH_EXPECTS(votes.size() == count * k && margins.size() == count * k);
  if (count == 0) return;
  tally_rows(xs.data(), scaler_.means().size(), count, votes.data(),
             margins.data());
}

int MulticlassSvm::predict(const std::vector<double>& x) const {
  FADEWICH_EXPECTS(trained_);
  if (classes_.size() == 1) return classes_[0];
  FADEWICH_EXPECTS(x.size() == scaler_.means().size());
  int out = 0;
  predict_rows(x.data(), x.size(), 1, &out);
  return out;
}

void MulticlassSvm::predict_block(std::span<const double> xs,
                                  std::size_t count,
                                  std::span<int> out) const {
  FADEWICH_EXPECTS(trained_);
  FADEWICH_EXPECTS(out.size() == count);
  if (count == 0) return;
  if (classes_.size() == 1) {
    std::fill(out.begin(), out.end(), classes_[0]);
    return;
  }
  FADEWICH_EXPECTS(xs.size() == count * scaler_.means().size());
  predict_rows(xs.data(), scaler_.means().size(), count, out.data());
}

void MulticlassSvm::predict_block(
    const std::vector<std::vector<double>>& xs, std::span<int> out) const {
  FADEWICH_EXPECTS(trained_);
  FADEWICH_EXPECTS(out.size() == xs.size());
  if (xs.empty()) return;
  if (classes_.size() == 1) {
    std::fill(out.begin(), out.end(), classes_[0]);
    return;
  }
  // Pack the ragged rows once so the batched core streams contiguously.
  const std::size_t dim = scaler_.means().size();
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<double> packed = arena.get<double>(xs.size() * dim);
  for (std::size_t r = 0; r < xs.size(); ++r) {
    FADEWICH_EXPECTS(xs[r].size() == dim);
    std::copy(xs[r].begin(), xs[r].end(), packed.data() + r * dim);
  }
  predict_rows(packed.data(), dim, xs.size(), out.data());
}

MulticlassSvmState MulticlassSvm::export_state() const {
  FADEWICH_EXPECTS(trained_);
  MulticlassSvmState state;
  state.classes = classes_;
  state.scaler_means = scaler_.means();
  state.scaler_scales = scaler_.scales();
  state.machines.reserve(machines_.size());
  const std::size_t dim = pool_t_.rows();
  for (const Machine& m : machines_) {
    BinarySvmState svm;
    svm.bias = m.bias;
    for (std::size_t t = m.begin; t < m.end; ++t) {
      std::vector<double> row(dim);
      for (std::size_t d = 0; d < dim; ++d) {
        row[d] = pool_t_.at(d, term_rows_[t]);
      }
      svm.support_x.push_back(std::move(row));
      svm.support_alpha_y.push_back(term_weights_[t]);
    }
    state.machines.push_back(
        {classes_[m.first], classes_[m.second], std::move(svm)});
  }
  return state;
}

void MulticlassSvm::import_state(MulticlassSvmState state) {
  if (state.classes.empty()) throw Error("svm state has no classes");
  if (!std::is_sorted(state.classes.begin(), state.classes.end()) ||
      std::adjacent_find(state.classes.begin(), state.classes.end()) !=
          state.classes.end()) {
    throw Error("svm state classes are not sorted and unique");
  }
  const std::size_t k = state.classes.size();
  if (state.machines.size() != k * (k - 1) / 2) {
    throw Error("svm state has " + std::to_string(state.machines.size()) +
                " pairwise machines for " + std::to_string(k) + " classes");
  }

  StandardScaler scaler;
  scaler.restore(std::move(state.scaler_means),
                 std::move(state.scaler_scales));
  const std::size_t dim = scaler.means().size();

  std::set<std::pair<int, int>> seen;
  for (const auto& machine : state.machines) {
    const std::pair<int, int> pair{machine.first_class,
                                   machine.second_class};
    if (pair.first >= pair.second ||
        !std::binary_search(state.classes.begin(), state.classes.end(),
                            pair.first) ||
        !std::binary_search(state.classes.begin(), state.classes.end(),
                            pair.second)) {
      throw Error("svm state pairwise machine references unknown classes");
    }
    if (!seen.insert(pair).second) {
      throw Error("svm state has a duplicate pairwise machine");
    }
    const BinarySvmState& svm = machine.svm;
    if (svm.support_x.empty() ||
        svm.support_x.size() != svm.support_alpha_y.size()) {
      throw Error("svm state inconsistent: " +
                  std::to_string(svm.support_x.size()) +
                  " support vectors vs " +
                  std::to_string(svm.support_alpha_y.size()) + " weights");
    }
    for (const auto& row : svm.support_x) {
      if (row.size() != dim) {
        throw Error("svm state support rows do not match the scaler width");
      }
    }
  }

  classes_ = std::move(state.classes);
  scaler_ = std::move(scaler);
  assemble(std::move(state.machines), dim);
  trained_ = true;
}

double MulticlassSvm::accuracy(const Dataset& test) const {
  FADEWICH_EXPECTS(!test.empty());
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<int> predicted = arena.get<int>(test.size());
  predict_block(test.features, predicted);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (predicted[i] == test.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

}  // namespace fadewich::ml
