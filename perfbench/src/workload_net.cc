// net-open: independent users over loopback TCP. A static LVQ-4x8
// artifact is built, calibrated, saved and reopened (mapped), then served by
// a net::BlinkServer with default ServerOptions. An open-loop generator (one
// connection per worker, at most one worker per core) sends one query per
// request on a seeded Poisson schedule, rung by rung up a fixed rate
// ladder. Latency is timed from each request's due time. At low rates the
// serving engine's micro-batcher and the wire dominate; search is a minor
// share.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "api/calibrate.h"
#include "api/index.h"
#include "data/groundtruth.h"
#include "data/synthetic.h"
#include "eval/report.h"
#include "filter/synthetic.h"
#include "layers.h"
#include "net/client.h"
#include "net/server.h"
#include "openloop.h"
#include "stats.h"
#include "streams.h"
#include "trace.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr size_t kN = 20000;
constexpr size_t kNumQueries = 5000;  // 3000 calibrate, 2000 are sent
constexpr size_t kCalibQueries = 3000;
constexpr int kSetupReps = 3;

/// The p99 limit max_rate_qps is judged against, fixed once from the
/// lowest-rate rung's p99 on the reference host (see README.md).
constexpr double kP99LimitUs = 10000.0;

/// A rung whose generator falls this far behind is overloaded; the rest of
/// it is abandoned rather than drained.
constexpr int64_t kAbandonLateNs = 100'000'000;

/// Second tries a ladder may spend on failing rungs (see Generator::Run).
constexpr int kLadderRetries = 3;

struct ServerScrape {
  double p50_us = 0, p99_us = 0, queries = 0, batches = 0, rejected = 0,
         queue_depth = 0;
};

bool Scrape(blink::net::BlinkClient& client, ServerScrape* s) {
  blink::net::StatusTextResponse res;
  {
    ScopedSpan span("serve.stats_scrape");
    if (!client.Stats(&res).ok() ||
        res.status != blink::net::WireStatus::kOk) {
      return false;
    }
  }
  blink::Result<blink::json::Value> doc = blink::json::Parse(res.text);
  if (!doc.ok()) return false;
  auto num = [](const blink::json::Value* v, const char* key) {
    const blink::json::Value* m = v == nullptr ? nullptr : v->Find(key);
    return m != nullptr && m->is_number() ? m->as_number() : 0.0;
  };
  const blink::json::Value& root = doc.value();
  s->p50_us = num(&root, "p50_us");
  s->p99_us = num(&root, "p99_us");
  s->rejected = num(&root, "rejected_queries");
  s->queue_depth = num(&root, "queue_depth");
  s->queries = num(root.Find("engine"), "queries");
  s->batches = num(root.Find("engine"), "batches");
  return true;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

struct LadderRun {
  std::vector<RungResult> rungs;
  std::vector<double> ref_latency_us;   ///< reference rung, from due time
  std::vector<double> ref_service_us;   ///< reference rung, from send time
  uint64_t attempted = 0, failed = 0;
  double recall_sum = 0;
  uint64_t recall_n = 0;
  ServerScrape before_ref, after_ref, first, last;
  double ref_cpu_util = 0;
  double ref_queue_depth = 0;
  double saturated_qps = 0;  ///< achieved on the rung that stopped the ladder
};

class Generator {
 public:
  Generator(std::vector<blink::net::BlinkClient>* clients,
            blink::net::BlinkClient* stats_client,
            const blink::MatrixF& queries,
            const blink::Matrix<uint32_t>& truth,
            const blink::SearchOptions& options, uint64_t id_limit,
            Violations* violations)
      : clients_(clients),
        stats_client_(stats_client),
        queries_(queries),
        truth_(truth),
        options_(options),
        id_limit_(id_limit),
        violations_(violations) {}

  /// Runs the ladder from the bottom (rung r lasts durations[r] seconds)
  /// and stops at the first rung above the reference rung that fails. The
  /// reference rung measures latency; a slow host can fail it without the
  /// server being near saturation. A single host hiccup can also fail a
  /// rung below saturation, so a failing rung above the reference rung is
  /// run once more, and passes if the second try does; a ladder has at
  /// most kLadderRetries such second tries.
  LadderRun Run(uint64_t seed, const std::vector<double>& durations,
                bool sample_queue) {
    LadderRun run;
    Scrape((*clients_)[0], &run.first);
    int retries = kLadderRetries;
    for (size_t r = 0; r < kNumRungs; ++r) {
      RungResult res = RunRung(seed, r, 0, durations[r], sample_queue, &run);
      bool passed = RungPasses(res, kP99LimitUs);
      if (!passed && r > kReferenceRung && retries > 0) {
        --retries;
        res = RunRung(seed, r, 1, durations[r], sample_queue, &run);
        passed = RungPasses(res, kP99LimitUs);
      }
      run.rungs.push_back(res);
      // An overloaded rung only grows the backlog it must drain.
      if (!passed && r > kReferenceRung) {
        run.saturated_qps = res.achieved_qps;
        break;
      }
    }
    Scrape((*clients_)[0], &run.last);
    return run;
  }

 private:
  struct Slot {
    double recall = 0;
    uint64_t scored = 0;
  };

  /// One try (`attempt`) of rung `r`.
  RungResult RunRung(uint64_t seed, size_t r, uint64_t attempt,
                     double duration, bool sample_queue, LadderRun* run) {
    const double rate = kLadderRates[r];
    const std::vector<int64_t> schedule =
        PoissonSchedule(rate, duration, Mix64(seed) ^ r ^ (attempt << 32));
    std::vector<Slot> slots(schedule.size());
    const bool ref = r == kReferenceRung;
    if (ref) Scrape((*clients_)[0], &run->before_ref);
    const double cpu0 = CpuSeconds();
    const int64_t wall0 = NowNs();
    double depth_sum = 0;
    int depth_n = 0;
    const uint64_t rung_span = Tracer::Get().Begin("loadgen.rung", r, 0);
    const uint64_t request_base = (r << 1 | attempt) << 40;
    std::vector<RequestTimes> times = RunOpenLoop(
        schedule, clients_->size(),
        [&](size_t w, size_t i, int64_t due) {
          return Send(seed, r, request_base | i, w, i, due, rung_span,
                      &slots[i]);
        },
        [&](int64_t start) {
          if (!(sample_queue && ref)) return;
          // Samples the server's queue depth every 100 ms of the rung on a
          // connection of its own.
          const int64_t end = start + static_cast<int64_t>(duration * 1e9);
          for (int64_t t = start + 50'000'000; t < end; t += 100'000'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(std::max<int64_t>(0, t - NowNs())));
            ServerScrape s;
            if (Scrape(*stats_client_, &s)) {
              depth_sum += s.queue_depth;
              ++depth_n;
            }
          }
        },
        kAbandonLateNs);
    Tracer::Get().End(rung_span);
    const double wall_s = static_cast<double>(NowNs() - wall0) / 1e9;
    for (size_t i = 0; i < times.size(); ++i) {
      run->recall_sum += slots[i].recall;
      run->recall_n += slots[i].scored;
    }
    const RungResult res = SummarizeRung(rate, times, clients_->size());
    run->attempted += res.attempted;
    run->failed += res.failed;
    if (ref) {
      Scrape((*clients_)[0], &run->after_ref);
      run->ref_cpu_util = (CpuSeconds() - cpu0) /
                          (wall_s * std::thread::hardware_concurrency());
      run->ref_queue_depth = depth_n > 0 ? depth_sum / depth_n : 0.0;
      for (const RequestTimes& t : times) {
        if (!t.ok) continue;
        run->ref_latency_us.push_back(
            static_cast<double>(t.done_ns - t.due_ns) / 1e3);
        run->ref_service_us.push_back(
            static_cast<double>(t.done_ns - t.send_ns) / 1e3);
      }
    }
    std::printf("  rung %2zu%s: rate %5.0f/s  sent %6zu  failed %zu  "
                "abandoned %zu  achieved %8.1f/s  p50 %8.1fus  p90 %8.1fus  "
                "p99 %9.1fus (median of %zu windows)  late-p99 %8.1fus  "
                "backlog-max %5zu%s  %s\n",
                r, attempt > 0 ? " (retry)" : "", rate, res.attempted,
                res.failed, res.abandoned, res.achieved_qps, res.p50_us,
                res.p90_us, res.p99_us, res.windows, res.late_p99_us,
                res.backlog_max, res.backlog_growth ? " (growing)" : "",
                RungPasses(res, kP99LimitUs) ? "pass" : "FAIL");
    return res;
  }

  // One request: one query, checked on arrival. Any transport error,
  // refusal or malformed response fails the request.
  // The request span runs from the due time; its children are the wait in
  // the generator and the client call.
  bool Send(uint64_t seed, size_t rung, uint64_t request, size_t worker,
            size_t i, int64_t due_ns, uint64_t rung_span, Slot* slot) {
    Tracer& tracer = Tracer::Get();
    const uint64_t span =
        tracer.BeginAt("loadgen.request", due_ns, request, rung_span);
    tracer.Record("loadgen.wait", due_ns, NowNs(), request, span);
    const bool ok = SendChecked(seed, rung, worker, i, slot);
    tracer.End(span);
    return ok;
  }

  bool SendChecked(uint64_t seed, size_t rung, size_t worker, size_t i,
                   Slot* slot) {
    const QueryEvent e = QueryAt(seed, rung, i, queries_.rows(), 1);
    blink::MatrixViewF one(queries_.row(e.row), 1, queries_.cols());
    blink::net::SearchResponse res;
    blink::Status st;
    {
      ScopedSpan span("net.client_search");
      st = (*clients_)[worker].Search(one, kK, options_, &res);
    }
    if (!st.ok()) {
      violations_->Add("net-open: transport: " + st.ToString());
      return false;
    }
    if (res.status != blink::net::WireStatus::kOk) {
      // Refusals (overload) are failures, not correctness violations.
      return false;
    }
    if (res.num_queries != 1 || res.k != kK || res.generation != 1 ||
        res.ids.size() != kK || res.dists.size() != kK) {
      violations_->Add("net-open: malformed response header");
      return false;
    }
    if (const char* bad =
            CheckRow(res.ids.data(), res.dists.data(), kK, id_limit_)) {
      violations_->Add(std::string("net-open: ") + bad);
      return false;
    }
    const double rec = RowRecall(res.ids.data(), truth_.row(e.row), kK);
    if (rec >= 0) {
      slot->recall = rec;
      slot->scored = 1;
    }
    return true;
  }

  std::vector<blink::net::BlinkClient>* clients_;
  blink::net::BlinkClient* stats_client_;
  const blink::MatrixF& queries_;
  const blink::Matrix<uint32_t>& truth_;
  blink::SearchOptions options_;
  uint64_t id_limit_;
  Violations* violations_;
};

/// Rung durations: the reference rung gets 30% of the budget and every
/// other rung 3.6% (the ladder up to today's saturation point fits the
/// budget), but every rung lasts long enough for three latency windows.
std::vector<double> RungDurations(double seconds) {
  std::vector<double> d(kNumRungs);
  for (size_t r = 0; r < kNumRungs; ++r) {
    const double share = seconds * (r == kReferenceRung ? 0.30 : 0.036);
    d[r] = std::max(share, 3.5 * kLatencyWindow / kLadderRates[r]);
  }
  return d;
}

}  // namespace

bool RunNetOpen(const RunArgs& args, RunOutcome* out) {
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
  std::printf("inputs: n=%zu d=%zu queries=%zu (calibrate %zu, sent %zu) "
              "request-stream hash %016llx\n",
              ds.base.rows(), ds.base.cols(), kNumQueries, calib.rows(),
              eval.rows(),
              static_cast<unsigned long long>(
                  QueryStreamHash(args.seed, kNumRungs, 4096, eval.rows(), 1)));

  const blink::IndexSpec spec =
      Lvq4x8Spec(blink::IndexKind::kStaticLvq, ds.metric);

  const std::string dir = args.out_dir + "/net-open-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  const std::string artifact = dir + "/index";

  std::unique_ptr<blink::net::BlinkServer> server;
  blink::SearchOptions options;
  double build_s = 0, calibrate_s = 0, open_s = 0;
  size_t memory_bytes = 0, size = 0;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&](int) {
    server.reset();
    blink::Timer t;
    CalibratedIndex built;
    if (!BuildAndCalibrate(spec, ds.base, calib, calib_gt, nullptr, &pool,
                           &built, &out->error)) {
      return 0.0;
    }
    options = built.options;
    build_s = built.build_s;
    calibrate_s = built.calibrate_s;
    {
      ScopedSpan span("api.save");
      blink::Status saved = built.index.Save(artifact);
      if (!saved.ok()) {
        out->error = "save: " + saved.ToString();
        return 0.0;
      }
    }
    blink::Timer to;
    blink::OpenOptions oo;
    oo.load_mode = blink::LoadMode::kMap;
    blink::Result<blink::Index> opened = [&] {
      ScopedSpan span("api.open");
      return blink::Open(artifact, oo);
    }();
    if (!opened.ok()) {
      out->error = "open: " + opened.status().ToString();
      return 0.0;
    }
    open_s = to.Seconds();
    memory_bytes = opened.value().memory_bytes();
    size = opened.value().size();
    {
      ScopedSpan span("serve.start");
      blink::Result<std::unique_ptr<blink::net::BlinkServer>> started =
          blink::net::BlinkServer::Start(std::move(opened).value(),
                                         blink::net::ServerOptions());
      if (!started.ok()) {
        out->error = "server start: " + started.status().ToString();
        return 0.0;
      }
      server = std::move(started).value();
    }
    return t.Seconds();
  });
  auto cleanup = [&] {
    server.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  };
  if (!out->error.empty()) {
    cleanup();
    return false;
  }
  out->index_bytes = memory_bytes;
  std::printf("server: port %u, index size=%zu memory=%zu bytes, calibrated "
              "window=%u rerank_window=%u, p99 limit %.0fus\n",
              server->port(), size, memory_bytes, options.window,
              options.rerank_window, kP99LimitUs);

  std::vector<blink::net::BlinkClient> clients;
  for (size_t w = 0; w <= args.threads; ++w) {
    blink::Result<blink::net::BlinkClient> c =
        blink::net::BlinkClient::Connect("127.0.0.1", server->port());
    if (!c.ok()) {
      out->error = "connect: " + c.status().ToString();
      cleanup();
      return false;
    }
    clients.push_back(std::move(c).value());
  }
  // The last connection only scrapes /stats; the load uses the others.
  blink::net::BlinkClient stats_client = std::move(clients.back());
  clients.pop_back();

  // The timed phase of every run is untraced; a traced run records only
  // set-up, the repeat of the phase below and the probes.
  Tracer::Get().SetEnabled(false);
  Generator gen(&clients, &stats_client, eval, eval_gt, options, size,
                &out->violations);
  // Warm-up: a short stretch at the reference rate (not reported).
  {
    const std::vector<int64_t> schedule =
        PoissonSchedule(kLadderRates[kReferenceRung], 0.3, args.seed ^ 0xa11);
    RunOpenLoop(schedule, clients.size(), [&](size_t w, size_t i, int64_t) {
      blink::net::SearchResponse res;
      blink::MatrixViewF one(eval.row(i % eval.rows()), 1, eval.cols());
      return clients[w].Search(one, kK, options, &res).ok();
    });
  }

  const std::vector<double> durations = RungDurations(args.seconds);
  std::printf("ladder (untraced):\n");
  LadderRun base = gen.Run(args.seed, durations, false);
  out->attempted += base.attempted;
  out->failed += base.failed;
  const int best = MaxPassingRung(base.rungs, kP99LimitUs);
  const double max_rate = best >= 0 ? base.rungs[best].achieved_qps : 0.0;
  const double recall = base.recall_sum / static_cast<double>(std::max<uint64_t>(1, base.recall_n));
  const RungResult& ref = base.rungs[kReferenceRung];
  std::printf("max_rate: rung %d (%.0f/s offered, %.1f/s achieved); "
              "reference rung %zu at %.0f/s; recall@10 %.4f over %llu "
              "responses\n",
              best, best >= 0 ? kLadderRates[best] : 0.0, max_rate,
              kReferenceRung, kLadderRates[kReferenceRung], recall,
              static_cast<unsigned long long>(base.recall_n));
  if (recall < 0.85) out->violations.Add("net-open: recall below 0.85");

  if (!args.trace) {
    rep.Set("qps", ref.achieved_qps);
    rep.Set("max_rate_qps", max_rate);
    SetLatencyMetrics(base.ref_latency_us, false, out);
    rep.Set("recall_at_10", recall);
    rep.Set("index_bytes_per_vector", static_cast<double>(memory_bytes) /
                                          static_cast<double>(size));
    rep.Set("setup_s", setup_s);
    cleanup();
    return true;
  }

  Tracer::Get().SetEnabled(true);
  std::printf("ladder (traced):\n");
  LadderRun traced = gen.Run(args.seed + 1, durations, true);
  out->attempted += traced.attempted;
  out->failed += traced.failed;
  const int tbest = MaxPassingRung(traced.rungs, kP99LimitUs);
  const double traced_max =
      tbest >= 0 ? traced.rungs[tbest].achieved_qps : 0.0;
  rep.Set("trace.overhead_pct",
          max_rate > 0 ? (max_rate - traced_max) / max_rate * 100.0 : 0.0);

  // The tail of the reference rung: the median of its windows' p99s.
  SetLatencyMetrics(traced.ref_latency_us, true, out,
                    traced.rungs[kReferenceRung].p99_us);
  rep.Set("loadgen.rung0.p50_us", traced.rungs[kReferenceRung].p50_us);
  rep.Set("loadgen.rung0.p99_us", traced.rungs[kReferenceRung].p99_us);
  if (tbest >= 0) {
    rep.Set("loadgen.top_rung.p50_us", traced.rungs[tbest].p50_us);
    rep.Set("loadgen.top_rung.p99_us", traced.rungs[tbest].p99_us);
  }
  rep.Set("loadgen.saturated_qps", traced.saturated_qps);
  size_t backlog_max = 0;
  for (int r = 0; r <= tbest; ++r) {
    backlog_max = std::max(backlog_max, traced.rungs[r].backlog_max);
  }
  rep.Set("loadgen.late_us_p99", traced.rungs[kReferenceRung].late_p99_us);
  rep.Set("loadgen.backlog_max", static_cast<double>(backlog_max));

  const ServerScrape& b = traced.before_ref;
  const ServerScrape& a = traced.after_ref;
  rep.Set("serve.server_p50_us", a.p50_us);
  rep.Set("serve.server_p99_us", a.p99_us);
  rep.Set("serve.queries_per_batch",
          a.batches > b.batches ? (a.queries - b.queries) / (a.batches - b.batches)
                                : 0.0);
  rep.Set("serve.rejected", traced.last.rejected - traced.first.rejected);
  rep.Set("serve.queue_depth", traced.ref_queue_depth);
  rep.Set("serve.cpu_util", traced.ref_cpu_util);
  rep.Set("net.wire_us", Median(traced.ref_service_us) - a.p50_us);

  rep.Set("api.build_s", build_s);
  rep.Set("api.calibrate_s", calibrate_s);
  rep.Set("api.open_s", open_s);
  rep.Set("api.window", options.window);
  rep.Set("api.rerank_window", options.rerank_window);

  // Search and re-rank as the server runs them, on a second mapping of the
  // same artifact, so the layer split of a request can be read off.
  blink::OpenOptions oo;
  oo.load_mode = blink::LoadMode::kMap;
  blink::Result<blink::Index> probe = blink::Open(artifact, oo);
  if (probe.ok()) {
    ProbeGraph(probe.value(), eval, kK, options, &rep);
    ProbeRerank(probe.value(), eval, eval_gt, kK, options, &rep);
  } else {
    out->violations.Add("net-open: reopening the artifact for probes failed");
  }
  const blink::MetadataStore md = blink::MakeSyntheticMetadata(
      kN, {blink::ColumnType::kF64}, kMetadataSeed);
  ProbeStandaloneLayers(ds.base, eval, md, args.seed, kK, options, &pool,
                        &rep);
  cleanup();
  return true;
}

}  // namespace perfbench
