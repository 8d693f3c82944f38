// inproc-lvq: the paper's headline measurement. A static LVQ-4x8 index
// (R=24) over 50k deep-like vectors, calibrated at set-up to recall@10 >=
// 0.9 on a held-out half of the queries, then a closed loop of one thread
// per core, each holding its own Searcher and sending one query per call.
// Nearly all the time goes to simd, quant and graph search plus re-rank.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "api/calibrate.h"
#include "api/index.h"
#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "filter/synthetic.h"
#include "layers.h"
#include "stats.h"
#include "streams.h"
#include "trace.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr size_t kN = 50000;
constexpr size_t kNumQueries = 5000;  // 3000 calibrate, 2000 are timed
constexpr size_t kCalibQueries = 3000;

struct LoopResult {
  double seconds = 0.0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  double recall_sum = 0.0;
  uint64_t recall_n = 0;
  uint64_t distances = 0;
  uint64_t hops = 0;
  std::vector<double> latency_us;
};

// Closed loop: `threads` workers, each with its own Searcher, each sending
// its seeded query stream back to back until `seconds` elapse.
LoopResult ClosedLoop(const blink::Index& index, const blink::MatrixF& queries,
                      const blink::Matrix<uint32_t>& truth,
                      const blink::SearchOptions& options, size_t threads,
                      uint64_t seed, double seconds, Violations* violations) {
  std::vector<LoopResult> per(threads);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const uint64_t id_limit = index.size();
  blink::Timer wall;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoopResult& r = per[t];
      r.latency_us.reserve(1 << 16);
      std::unique_ptr<blink::Searcher> searcher = index.MakeSearcher();
      uint32_t ids[kK];
      float dists[kK];
      blink::BatchStats stats;
      for (uint64_t i = 0;; ++i) {
        const int64_t t0 = NowNs();
        if (t0 >= deadline) break;
        const QueryEvent e = QueryAt(seed, t, i, queries.rows(), 1);
        {
          ScopedSpan span("graph.search", t << 40 | i);
          searcher->Search(queries.row(e.row), kK, options, ids, dists,
                           &stats);
        }
        r.latency_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        ++r.queries;
        if (const char* bad = CheckRow(ids, dists, kK, id_limit)) {
          violations->Add(std::string("inproc-lvq: ") + bad);
          ++r.failed;
        }
        const double rec = RowRecall(ids, truth.row(e.row), kK);
        if (rec >= 0) {
          r.recall_sum += rec;
          ++r.recall_n;
        }
      }
      r.distances = stats.distance_computations;
      r.hops = stats.hops;
    });
  }
  for (std::thread& th : pool) th.join();
  LoopResult all;
  all.seconds = wall.Seconds();
  for (LoopResult& r : per) {
    all.queries += r.queries;
    all.failed += r.failed;
    all.recall_sum += r.recall_sum;
    all.recall_n += r.recall_n;
    all.distances += r.distances;
    all.hops += r.hops;
    all.latency_us.insert(all.latency_us.end(), r.latency_us.begin(),
                          r.latency_us.end());
  }
  return all;
}

}  // namespace

bool RunInprocLvq(const RunArgs& args, RunOutcome* out) {
  Report& rep = out->report;
  blink::ThreadPool pool(args.threads);
  blink::Dataset ds = blink::MakeDeepLike(kN, kQueryPool, kCorpusSeed);
  const blink::MatrixF calib = CopyRows(ds.queries, 0, kCalibQueries);
  const blink::MatrixF eval =
      SampleRows(CopyRows(ds.queries, kCalibQueries, kQueryPool),
                 kNumQueries - kCalibQueries, args.seed);
  const blink::Matrix<uint32_t> calib_gt =
      blink::ComputeGroundTruth(ds.base, calib, kK, ds.metric, &pool);
  const blink::Matrix<uint32_t> eval_gt =
      blink::ComputeGroundTruth(ds.base, eval, kK, ds.metric, &pool);
  std::printf("inputs: n=%zu d=%zu queries=%zu (calibrate %zu, timed %zu) "
              "query-stream hash %016llx\n",
              ds.base.rows(), ds.base.cols(), kNumQueries, calib.rows(),
              eval.rows(),
              static_cast<unsigned long long>(QueryStreamHash(
                  args.seed, args.threads, 4096, eval.rows(), 1)));

  // One set-up per run, timed directly: the 50k LVQ-4x8 build alone takes
  // 14-20 s on the reference host, so repeating it would not fit the run
  // budget.
  CalibratedIndex built;
  blink::Timer setup_timer;
  if (!BuildAndCalibrate(Lvq4x8Spec(blink::IndexKind::kStaticLvq, ds.metric),
                         ds.base, calib, calib_gt, nullptr, &pool, &built,
                         &out->error)) {
    return false;
  }
  const double setup_s = setup_timer.Seconds();
  std::printf("setup: %.3fs\n", setup_s);
  const blink::Index& index = built.index;
  const blink::SearchOptions& options = built.options;
  out->index_bytes = index.memory_bytes();
  std::printf("index: %s size=%zu memory=%zu bytes, calibrated window=%u "
              "rerank_window=%u\n",
              index.name().c_str(), index.size(), index.memory_bytes(),
              options.window, options.rerank_window);

  // The timed phase of every run is untraced; a traced run records only
  // set-up, the repeat of the phase below and the probes.
  Tracer::Get().SetEnabled(false);
  LoopResult base = ClosedLoop(index, eval, eval_gt, options, args.threads,
                               args.seed, args.seconds, &out->violations);
  const double qps = static_cast<double>(base.queries) / base.seconds;
  const double recall = base.recall_sum / static_cast<double>(base.recall_n);
  out->attempted += base.queries;
  out->failed += base.failed;
  std::printf("timed phase: %llu queries in %.3f s, %.1f qps, recall@10 "
              "%.4f\n",
              static_cast<unsigned long long>(base.queries), base.seconds,
              qps, recall);
  if (recall < 0.85) out->violations.Add("inproc-lvq: recall below 0.85");

  if (!args.trace) {
    rep.Set("qps", qps);
    rep.Set("max_rate_qps", qps);
    SetLatencyMetrics(base.latency_us, false, out);
    rep.Set("recall_at_10", recall);
    rep.Set("index_bytes_per_vector",
            static_cast<double>(index.memory_bytes()) /
                static_cast<double>(index.size()));
    rep.Set("setup_s", setup_s);
    return true;
  }

  // Traced run: the same loop again with spans on; per-layer numbers come
  // from this phase and the probes after it.
  Tracer::Get().SetEnabled(true);
  LoopResult traced = ClosedLoop(index, eval, eval_gt, options, args.threads,
                                 args.seed + 1, args.seconds,
                                 &out->violations);
  out->attempted += traced.queries;
  out->failed += traced.failed;
  const double traced_qps =
      static_cast<double>(traced.queries) / traced.seconds;
  rep.Set("trace.overhead_pct", (qps - traced_qps) / qps * 100.0);
  SetLatencyMetrics(traced.latency_us, true, out);
  const std::vector<Span> spans = Tracer::Get().Collect();
  SetGraphMetrics(SpanDurationsUs(spans, "graph.search"), traced.queries,
                  traced.distances, traced.hops, &rep);

  rep.Set("api.build_s", built.build_s);
  rep.Set("api.calibrate_s", built.calibrate_s);
  rep.Set("api.open_s", 0.0);
  rep.Set("api.window", options.window);
  rep.Set("api.rerank_window", options.rerank_window);
  ProbeRerank(index, eval, eval_gt, kK, options, &rep);
  const blink::MetadataStore md = blink::MakeSyntheticMetadata(
      kN, {blink::ColumnType::kF64}, kMetadataSeed);
  ProbeStandaloneLayers(ds.base, eval, md, args.seed, kK, options, &pool,
                        &rep);
  return true;
}

}  // namespace perfbench
