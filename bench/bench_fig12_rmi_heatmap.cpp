// Fig. 12: importance of each stream for the classification, as relative
// mutual information (RMI) with the class label, aggregated per sensor —
// the paper's heatmap over the office floor plan.  Reproduced here as the
// per-sensor mean RMI of the streams touching that sensor (identifying
// the sensors whose links carry little discriminative information, like
// the paper's d5) plus the most informative individual streams.
#include <algorithm>

#include "bench_util.hpp"
#include "fadewich/ml/mutual_info.hpp"
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
  const std::size_t per_stream = core::kFeaturesPerStream;

  // Stream importance: best RMI among its features (256 linear bins, as
  // in Appendix A).
  std::vector<double> stream_rmi(pairs.size(), 0.0);
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    for (std::size_t f = 0; f < per_stream; ++f) {
      std::vector<double> column;
      for (const auto& sample : data.features) {
        column.push_back(sample[s * per_stream + f]);
      }
      stream_rmi[s] = std::max(
          stream_rmi[s],
          ml::relative_mutual_information(column, data.labels, 256));
    }
  }

  // Per-sensor aggregate: mean RMI of streams touching the sensor.
  std::vector<std::vector<double>> per_sensor(9);
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    per_sensor[pairs[s].first].push_back(stream_rmi[s]);
    per_sensor[pairs[s].second].push_back(stream_rmi[s]);
  }

  eval::print_banner(
      std::cout, "Fig. 12: stream importance (RMI) on the floor plan");
  eval::TextTable table({"sensor", "mean RMI of its streams",
                         "max stream RMI"});
  for (std::size_t d = 0; d < 9; ++d) {
    std::string sensor = "d";
    sensor += std::to_string(d + 1);
    table.add_row({sensor,
                   eval::fmt(stats::mean(per_sensor[d]), 4),
                   eval::fmt(stats::max(per_sensor[d]), 4)});
  }
  table.print(std::cout);

  std::vector<std::size_t> order(pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return stream_rmi[a] > stream_rmi[b];
  });
  std::cout << "\nMost discriminative streams:\n";
  eval::TextTable top({"stream", "RMI"});
  for (std::size_t k = 0; k < 10; ++k) {
    const std::size_t s = order[k];
    std::string stream = "d";
    stream += std::to_string(pairs[s].first + 1);
    stream += "-d";
    stream += std::to_string(pairs[s].second + 1);
    top.add_row({stream, eval::fmt(stream_rmi[s], 4)});
  }
  top.print(std::cout);
  std::cout << "\npaper shape: importance concentrates on links crossing\n"
               "the walking paths; some sensors contribute little\n";
  return 0;
}
