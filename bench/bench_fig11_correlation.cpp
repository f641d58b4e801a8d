// Fig. 11: correlations between the per-stream variances over the labeled
// samples (9 sensors).  The paper's 72x72 heatmap shows strong blocks for
// streams that share sensors — especially reciprocal pairs — and weak
// correlation for geometrically disjoint links.  We print the aggregate
// structure plus the strongest off-diagonal pairs.
#include <algorithm>

#include "bench_util.hpp"
#include "fadewich/stats/correlation.hpp"
#include "fadewich/stats/descriptive.hpp"

using namespace fadewich;

int main() {
  const eval::PaperExperiment experiment = bench::make_experiment();
  constexpr double kTDelta = 4.5;
  const auto analysis = bench::analyze_md(experiment, 9, kTDelta);
  core::FeatureConfig features;
  const auto data =
      eval::build_dataset(experiment.recording, eval::sensor_subset(9),
                          analysis.matches, kTDelta, features);
  const auto pairs = eval::dataset_stream_pairs(eval::sensor_subset(9));

  // Variance column of each stream across the samples.
  const std::size_t per_stream = core::kFeaturesPerStream;
  std::vector<std::vector<double>> variance_columns(pairs.size());
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    for (const auto& sample : data.features) {
      variance_columns[s].push_back(sample[s * per_stream]);
    }
  }
  const auto corr = stats::correlation_matrix(variance_columns);

  // Aggregate by geometric relationship.
  std::vector<double> reciprocal;
  std::vector<double> shared_sensor;
  std::vector<double> disjoint;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      const auto& [ta, ra] = pairs[i];
      const auto& [tb, rb] = pairs[j];
      if (ta == rb && ra == tb) {
        reciprocal.push_back(corr[i][j]);
      } else if (ta == tb || ta == rb || ra == tb || ra == rb) {
        shared_sensor.push_back(corr[i][j]);
      } else {
        disjoint.push_back(corr[i][j]);
      }
    }
  }

  eval::print_banner(
      std::cout,
      "Fig. 11: correlation structure of per-stream variances");
  eval::TextTable table({"stream-pair relationship", "pairs",
                         "mean correlation"});
  table.add_row({"reciprocal (di->dj vs dj->di)",
                 std::to_string(reciprocal.size()),
                 eval::fmt(stats::mean(reciprocal), 3)});
  table.add_row({"sharing one sensor",
                 std::to_string(shared_sensor.size()),
                 eval::fmt(stats::mean(shared_sensor), 3)});
  table.add_row({"disjoint sensors", std::to_string(disjoint.size()),
                 eval::fmt(stats::mean(disjoint), 3)});
  table.print(std::cout);

  // Strongest off-diagonal correlations.
  struct Entry {
    std::size_t i;
    std::size_t j;
    double c;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      entries.push_back({i, j, corr[i][j]});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.c > b.c; });
  std::cout << "\nTop 10 correlated stream pairs:\n";
  eval::TextTable top({"stream A", "stream B", "correlation"});
  auto name = [&](std::size_t s) {
    std::string n = "d";
    n += std::to_string(pairs[s].first + 1);
    n += "-d";
    n += std::to_string(pairs[s].second + 1);
    return n;
  };
  for (std::size_t k = 0; k < 10 && k < entries.size(); ++k) {
    top.add_row({name(entries[k].i), name(entries[k].j),
                 eval::fmt(entries[k].c, 3)});
  }
  top.print(std::cout);
  std::cout << "\npaper shape: devices close to each other react in\n"
               "similar ways (reciprocal and shared-sensor blocks)\n";
  return 0;
}
