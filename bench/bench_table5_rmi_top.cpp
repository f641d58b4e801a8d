// Table V: the 15 features ranking highest in relative mutual
// information with the class label (Appendix A: 256 linearly spaced
// quantisation bins; highly correlated duplicates removed first).
#include <algorithm>

#include "bench_util.hpp"
#include "fadewich/ml/mutual_info.hpp"
#include "fadewich/stats/correlation.hpp"

using namespace fadewich;

int main() {
  const eval::PaperExperiment experiment = bench::make_experiment();
  constexpr double kTDelta = 4.5;
  const auto analysis = bench::analyze_md(experiment, 9, kTDelta);
  core::FeatureConfig features;
  const auto data =
      eval::build_dataset(experiment.recording, eval::sensor_subset(9),
                          analysis.matches, kTDelta, features);
  const auto names = eval::dataset_feature_names(eval::sensor_subset(9));

  // Column-major view and per-feature RMI.
  const std::size_t dims = data.feature_count();
  std::vector<std::vector<double>> columns(dims);
  for (std::size_t f = 0; f < dims; ++f) {
    for (const auto& sample : data.features) {
      columns[f].push_back(sample[f]);
    }
  }
  std::vector<double> rmi(dims);
  for (std::size_t f = 0; f < dims; ++f) {
    rmi[f] = ml::relative_mutual_information(columns[f], data.labels, 256);
  }

  // Rank by RMI, greedily dropping near-duplicates of already-kept
  // features (the appendix removes highly correlated features).
  std::vector<std::size_t> order(dims);
  for (std::size_t i = 0; i < dims; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rmi[a] > rmi[b];
  });
  std::vector<std::size_t> kept;
  for (std::size_t f : order) {
    bool duplicate = false;
    for (std::size_t k : kept) {
      if (std::abs(stats::pearson(columns[f], columns[k])) > 0.95) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) kept.push_back(f);
    if (kept.size() == 15) break;
  }

  eval::print_banner(std::cout, "Table V: top 15 features by RMI");
  eval::TextTable table({"rank", "feature", "RMI"});
  for (std::size_t k = 0; k < kept.size(); ++k) {
    table.add_row({std::to_string(k + 1), names[kept[k]],
                   eval::fmt(rmi[kept[k]], 4)});
  }
  table.print(std::cout);
  std::cout << "\npaper shape: a mix of autocorrelation, entropy and\n"
               "variance features across many different links, with RMI\n"
               "values in a narrow band (0.26-0.30 in the paper)\n";
  return 0;
}
