// The benchmark's metric vocabulary and result line.
//
// Every metric the benchmark reports is declared here once, with its unit;
// BENCHMARK.json at the repository root lists the same names (a unit test
// checks that they agree). An untraced run reports every end-to-end
// metric, a traced run every per-layer metric, and the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  /// "higher" / "lower". For per-layer metrics that describe the input or
  /// a choice (selectivity, strategy code, span count) the direction is
  /// nominal; README.md lists which.
  std::string better;
  double bound = 0.0;  ///< end-to-end only: allowed worsening (share)
};

/// Rates (requests/s) of the net-open ladder. The rung at kReferenceRung
/// (the lowest, well below saturation on the reference host) gives the
/// reported latency; the highest passing rung gives max_rate_qps. From 5k/s
/// up the rungs are 5% apart, much finer than max_rate_qps's 0.25 bound:
/// a change in the rate the server sustains moves max_rate_qps in 5%
/// steps, and run-to-run noise in where the ladder stops stays small.
/// Today's saturation point (about 6k-8.5k/s with four connections,
/// depending on the host's speed) lies inside that stretch; below it a
/// regression large enough to leave it is caught anyway.
inline constexpr double kLadderRates[] = {
    2000, 3000, 4000, 5000, 5250, 5500, 5800,  6100,  6400,  6700,  7050,
    7400, 7750, 8150, 8550, 9000, 9450, 9900, 10400, 10900, 11500, 12100};
inline constexpr size_t kNumRungs = sizeof(kLadderRates) / sizeof(double);
inline constexpr size_t kReferenceRung = 0;

const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Collects metric values for one run and renders the result line.
class Report {
 public:
  /// Records `name` (must be declared above; aborts otherwise).
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;

  /// Declared metrics of the mode's list that were never Set.
  std::vector<std::string> Missing(bool trace) const;

  /// The final JSON line: only the mode's metrics, in declaration order,
  /// each value printed with every digit.
  std::string ResultLine(bool trace, bool correct, uint64_t attempted,
                         uint64_t failed) const;

  /// Human-readable "name = value unit" lines for the mode's metrics.
  std::string Table(bool trace) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
