#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "api/calibrate.h"
#include "stats.h"
#include "streams.h"
#include "trace.h"
#include "util/prng.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {

blink::MatrixF CopyRows(const blink::MatrixF& m, size_t lo, size_t hi) {
  blink::MatrixF out(hi - lo, m.cols());
  std::memcpy(out.data(), m.data() + lo * m.cols(),
              (hi - lo) * m.cols() * sizeof(float));
  return out;
}

blink::MatrixF SampleRows(const blink::MatrixF& pool, size_t count,
                          uint64_t seed) {
  std::vector<uint32_t> rows(pool.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  blink::Rng rng(Mix64(seed ^ 0x9e11));
  blink::MatrixF out(count, pool.cols());
  for (size_t i = 0; i < count; ++i) {
    std::swap(rows[i], rows[i + rng() % (rows.size() - i)]);
    std::memcpy(out.row(i), pool.row(rows[i]), pool.cols() * sizeof(float));
  }
  return out;
}

blink::IndexSpec Lvq4x8Spec(blink::IndexKind kind, blink::Metric metric) {
  blink::IndexSpec spec;
  spec.kind = kind;
  spec.metric = metric;
  spec.bits1 = 4;
  spec.bits2 = 8;
  spec.graph.graph_max_degree = 24;
  spec.graph.window_size = 48;
  return spec;
}

bool BuildAndCalibrate(const blink::IndexSpec& spec, const blink::MatrixF& base,
                       const blink::MatrixF& calib,
                       const blink::Matrix<uint32_t>& calib_gt,
                       std::shared_ptr<const blink::MetadataStore> metadata,
                       blink::ThreadPool* pool, CalibratedIndex* out,
                       std::string* error) {
  blink::Timer tb;
  {
    ScopedSpan span("api.build");
    blink::Result<blink::Index> built = blink::Build(spec, base, pool);
    if (!built.ok()) {
      *error = "build: " + built.status().ToString();
      return false;
    }
    out->index = std::move(built).value();
  }
  if (metadata != nullptr) {
    blink::Status attached = out->index.AttachMetadata(std::move(metadata));
    if (!attached.ok()) {
      *error = "attach metadata: " + attached.ToString();
      return false;
    }
  }
  out->build_s = tb.Seconds();
  blink::Timer tc;
  {
    ScopedSpan span("api.calibrate");
    blink::CalibrationTarget target;
    target.target_recall = kTargetRecall;
    target.sample_queries = calib;
    target.groundtruth = &calib_gt;
    target.k = kK;
    target.tune_rerank = blink::TuneKnob::kOff;
    target.pool = pool;
    blink::Result<blink::SearchOptions> tuned = out->index.Calibrate(target);
    if (!tuned.ok()) {
      *error = "calibrate: " + tuned.status().ToString();
      return false;
    }
    out->options = tuned.value();
  }
  out->calibrate_s = tc.Seconds();
  return true;
}

double MedianSetupSeconds(int reps,
                          const std::function<double(int)>& setup_once) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) s.push_back(setup_once(r));
  std::printf("setup: %d repetition(s):", reps);
  for (double v : s) std::printf(" %.3fs", v);
  std::printf("\n");
  return Median(s);
}

void SetLatencyMetrics(const std::vector<double>& latencies_us, bool trace,
                       RunOutcome* out, double p99_us) {
  const Tail p50 = PercentileOf(latencies_us, 50.0);
  const Tail p99 = PercentileOf(latencies_us, 99.0);
  const Tail best = HighestSupportedPercentile(latencies_us);
  std::printf("latency: %s, %s, %s\n",
              DescribeTail("median", p50, "us").c_str(),
              DescribeTail("tail", p99, "us").c_str(),
              DescribeTail("highest supported", best, "us").c_str());
  if (!SupportsPercentile(latencies_us.size(), 99.0)) {
    out->violations.Add("fewer than 1000 latency samples; p99 unsupported");
  }
  if (trace) {
    out->report.Set("loadgen.latency_p99_us", p99_us >= 0 ? p99_us : p99.value);
  } else {
    out->report.Set("latency_p50_us", p50.value);
  }
}

}  // namespace perfbench
