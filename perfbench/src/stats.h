// Timing summaries for the benchmark: the median plus the highest
// percentile the sample supports (at least ten samples beyond it), always
// with the sample count, so a reported tail is never an extrapolation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// One percentile of a sample, with the sample count it came from.
struct Tail {
  double percentile = 0.0;  ///< 0 when the sample supports no tail at all
  double value = 0.0;
  size_t samples = 0;
};

/// Percentile candidates the rule picks from, highest first.
inline constexpr double kTailCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// The highest candidate percentile p with n * (1 - p/100) >= 10, i.e. at
/// least ten samples lie beyond it. Returns percentile 0 (and value 0)
/// when fewer than 20 samples exist.
Tail HighestSupportedPercentile(const std::vector<double>& values);

/// The p-th percentile (linear interpolation) with its sample count.
Tail PercentileOf(const std::vector<double>& values, double p);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// True when `values` has enough samples for p-th percentile under the rule
/// above (n * (1 - p/100) >= 10).
bool SupportsPercentile(size_t n, double p);

/// "p99=123.4us (n=5000)" style label for human-readable output.
std::string DescribeTail(const char* what, const Tail& t, const char* unit);

}  // namespace perfbench
