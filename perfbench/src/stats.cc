#include "stats.h"

#include <algorithm>
#include <cstdio>

#include "util/stats.h"

namespace perfbench {

bool SupportsPercentile(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

Tail HighestSupportedPercentile(const std::vector<double>& values) {
  for (double p : kTailCandidates) {
    if (SupportsPercentile(values.size(), p)) return PercentileOf(values, p);
  }
  return Tail{0.0, 0.0, values.size()};
}

Tail PercentileOf(const std::vector<double>& values, double p) {
  Tail t;
  t.percentile = p;
  t.samples = values.size();
  t.value = values.empty() ? 0.0 : blink::Percentile(values, p);
  return t;
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : blink::Percentile(std::move(values), 50.0);
}

std::string DescribeTail(const char* what, const Tail& t, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s p%g=%.1f%s (n=%zu)", what, t.percentile,
                t.value, unit, t.samples);
  return buf;
}

}  // namespace perfbench
