// The three workloads and the pieces they share. See ../README.md for why
// each workload exists and which layers it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/index.h"
#include "checks.h"
#include "metrics.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace perfbench {

inline constexpr size_t kK = 10;
inline constexpr double kTargetRecall = 0.9;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  size_t threads = 4;  ///< load threads: nproc, at most 4
};

struct RunOutcome {
  Report report;
  Violations violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t index_bytes = 0;  ///< for the cache caveat
  std::string error;       ///< set when the workload could not run at all
};

/// Each returns false (with `out->error`) when set-up failed; correctness
/// violations are reported through `out->violations` instead.
bool RunInprocLvq(const RunArgs& args, RunOutcome* out);
bool RunNetOpen(const RunArgs& args, RunOutcome* out);
bool RunChurnFiltered(const RunArgs& args, RunOutcome* out);

// --- shared helpers ----------------------------------------------------------

/// Seed of the synthetic corpus, fixed for every run. The corpus (vectors,
/// metadata, the query pool whose first rows are the calibration set, and
/// churn-filtered's writer script) is part of the workload's definition:
/// the --seed of a run draws its read traffic (the timed queries, their
/// order and the request schedule). A per-seed corpus, and then per-seed calibration
/// queries, moved the calibrated window by up to 18% between seeds, and
/// QPS with it, which swamped the spread of repeated runs.
inline constexpr uint64_t kCorpusSeed = 1234;

/// Seed of the synthetic per-vector metadata, part of the fixed corpus.
inline constexpr uint64_t kMetadataSeed = 7;

/// Queries the corpus generator draws; each run samples its own from them.
inline constexpr size_t kQueryPool = 20000;

/// Rows [lo, hi) of `m` as an owned matrix.
blink::MatrixF CopyRows(const blink::MatrixF& m, size_t lo, size_t hi);

/// `count` distinct rows of `pool`, chosen by `seed`.
blink::MatrixF SampleRows(const blink::MatrixF& pool, size_t count,
                          uint64_t seed);

/// The spec every workload builds: LVQ-4x8, R=24, build window 48. `kind`
/// is kStaticLvq or kDynamicLvq.
blink::IndexSpec Lvq4x8Spec(blink::IndexKind kind, blink::Metric metric);

/// An index and the options Calibrate chose for it.
struct CalibratedIndex {
  blink::Index index;
  blink::SearchOptions options;
  double build_s = 0.0;
  double calibrate_s = 0.0;
};

/// Builds `spec` over `base` (span api.build), attaches `metadata` when it
/// is set, and calibrates the index to kTargetRecall on `calib`, whose
/// exact ids are `calib_gt` (span api.calibrate). Only the window is
/// calibrated; re-rank stays over the full window. Calibrating
/// rerank_window too lands on 2k, 4k or 8k depending on the seed, which
/// alone moved QPS by ~11% between seeds. Returns false with `*error` set
/// when a call fails.
bool BuildAndCalibrate(const blink::IndexSpec& spec, const blink::MatrixF& base,
                       const blink::MatrixF& calib,
                       const blink::Matrix<uint32_t>& calib_gt,
                       std::shared_ptr<const blink::MetadataStore> metadata,
                       blink::ThreadPool* pool, CalibratedIndex* out,
                       std::string* error);

/// Runs `setup_once` `reps` times; each call returns the seconds its
/// library calls took. Returns the median. Every call but the last must
/// release what it built (the last one's result is kept by the caller).
double MedianSetupSeconds(int reps, const std::function<double(int)>& setup_once);

/// Prints the latency summary of a timed phase (median, p99 and the
/// highest supported percentile, with sample counts) and records a
/// violation when the sample is too small for p99. Sets latency_p50_us in
/// an untraced run and loadgen.latency_p99_us in a traced one; `p99_us`
/// overrides the plain p99 (net-open reports a windowed one).
void SetLatencyMetrics(const std::vector<double>& latencies_us, bool trace,
                       RunOutcome* out, double p99_us = -1.0);

}  // namespace perfbench
