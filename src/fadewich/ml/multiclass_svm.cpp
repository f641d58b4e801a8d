#include "fadewich/ml/multiclass_svm.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
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
        return svm;
      });

  machines_.clear();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    machines_.emplace(pairs[p], std::move(trained[p]));
  }
  trained_ = true;
}

// Batched one-vs-one voting over `count` packed unscaled rows.  Work
// proceeds machine-major: each pairwise machine's support-vector matrix
// is streamed once per batch (BinarySvm::decision_block), and every
// row's votes/margins accumulate in machine order — the identical order
// and arithmetic the per-query path used, so results are bit-for-bit
// the same.  All temporaries come from the calling thread's arena.
void MulticlassSvm::predict_rows(const double* xs, std::size_t stride,
                                 std::size_t count, int* out) const {
  const std::size_t dim = scaler_.means().size();
  const std::size_t k = classes_.size();
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<double> scaled = arena.get<double>(count * dim);
  scaler_.transform_rows(xs, stride, count, scaled.data());
  const std::span<double> decisions = arena.get<double>(count);
  const std::span<int> votes = arena.get<int>(count * k);
  const std::span<double> margins = arena.get<double>(count * k);
  std::fill(votes.begin(), votes.end(), 0);
  std::fill(margins.begin(), margins.end(), 0.0);

  for (const auto& [pair, svm] : machines_) {
    svm.decision_block(std::span<const double>(scaled.data(), count * dim),
                       count, decisions);
    const auto first = static_cast<std::size_t>(
        std::lower_bound(classes_.begin(), classes_.end(), pair.first) -
        classes_.begin());
    const auto second = static_cast<std::size_t>(
        std::lower_bound(classes_.begin(), classes_.end(), pair.second) -
        classes_.begin());
    for (std::size_t r = 0; r < count; ++r) {
      const double d = decisions[r];
      const std::size_t winner = d >= 0.0 ? first : second;
      ++votes[r * k + winner];
      margins[r * k + winner] += std::abs(d);
    }
  }

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
  for (const auto& [pair, svm] : machines_) {
    state.machines.push_back({pair.first, pair.second, svm.export_state()});
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

  std::map<std::pair<int, int>, BinarySvm> machines;
  for (auto& machine : state.machines) {
    const std::pair<int, int> pair{machine.first_class,
                                   machine.second_class};
    if (pair.first >= pair.second ||
        !std::binary_search(state.classes.begin(), state.classes.end(),
                            pair.first) ||
        !std::binary_search(state.classes.begin(), state.classes.end(),
                            pair.second)) {
      throw Error("svm state pairwise machine references unknown classes");
    }
    BinarySvm svm(config_);
    svm.import_state(std::move(machine.svm));
    if (!machines.emplace(pair, std::move(svm)).second) {
      throw Error("svm state has a duplicate pairwise machine");
    }
  }

  classes_ = std::move(state.classes);
  scaler_ = std::move(scaler);
  machines_ = std::move(machines);
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
