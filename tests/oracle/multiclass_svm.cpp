#include "oracle/multiclass_svm.hpp"

#include <algorithm>
#include <cmath>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"

namespace fadewich::oracle {

MachineMajorSvm::MachineMajorSvm(const ml::MulticlassSvmState& state,
                                 ml::SvmConfig config)
    : classes_(state.classes) {
  scaler_.restore(state.scaler_means, state.scaler_scales);
  const auto index_of = [&](int label) {
    return static_cast<std::size_t>(
        std::lower_bound(classes_.begin(), classes_.end(), label) -
        classes_.begin());
  };
  for (const auto& machine : state.machines) {
    ml::BinarySvm svm(config);
    svm.import_state(machine.svm);
    machines_.push_back({index_of(machine.first_class),
                         index_of(machine.second_class), std::move(svm)});
  }
  std::sort(machines_.begin(), machines_.end(),
            [](const Machine& a, const Machine& b) {
              return std::pair(a.first, a.second) <
                     std::pair(b.first, b.second);
            });
}

void MachineMajorSvm::tally(std::span<const double> xs, std::size_t count,
                            std::span<int> votes,
                            std::span<double> margins) const {
  const std::size_t dim = scaler_.means().size();
  const std::size_t k = classes_.size();
  FADEWICH_EXPECTS(xs.size() == count * dim);
  FADEWICH_EXPECTS(votes.size() == count * k && margins.size() == count * k);
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<double> scaled = arena.get<double>(count * dim);
  scaler_.transform_rows(xs.data(), dim, count, scaled.data());
  const std::span<double> decisions = arena.get<double>(count);
  std::fill(votes.begin(), votes.end(), 0);
  std::fill(margins.begin(), margins.end(), 0.0);
  for (const Machine& machine : machines_) {
    machine.svm.decision_block(scaled, count, decisions);
    for (std::size_t r = 0; r < count; ++r) {
      const double d = decisions[r];
      const std::size_t winner = d >= 0.0 ? machine.first : machine.second;
      ++votes[r * k + winner];
      margins[r * k + winner] += std::abs(d);
    }
  }
}

void MachineMajorSvm::predict(std::span<const double> xs, std::size_t count,
                              std::span<int> out) const {
  const std::size_t k = classes_.size();
  FADEWICH_EXPECTS(out.size() == count);
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<int> votes = arena.get<int>(count * k);
  const std::span<double> margins = arena.get<double>(count * k);
  tally(xs, count, votes, margins);
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

}  // namespace fadewich::oracle
