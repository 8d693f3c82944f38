#include "layers.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "checks.h"
#include "net/protocol.h"
#include "quant/lvq.h"
#include "simd/distance.h"
#include "stats.h"
#include "trace.h"
#include "util/float16.h"
#include "util/prng.h"
#include "util/timer.h"

namespace perfbench {

using blink::MatrixViewF;

namespace {

std::shared_ptr<const blink::Predicate> ParsePredicate(const char* text) {
  return std::make_shared<const blink::Predicate>(
      std::move(blink::Predicate::Parse(text)).value());
}

// Defeats dead-code elimination of the kernel calls being timed.
volatile float g_sink = 0.0f;

// Times `call(row)` over `order`, repeating the pass until at least
// `min_seconds` elapsed; returns ns per call.
template <typename Fn>
double NsPerCall(const std::vector<uint32_t>& order, double min_seconds,
                 const char* span_name, Fn&& call) {
  ScopedSpan span(span_name);
  size_t calls = 0;
  float acc = 0.0f;
  blink::Timer t;
  do {
    for (uint32_t row : order) acc += call(row);
    calls += order.size();
  } while (t.Seconds() < min_seconds);
  const double ns = t.Nanos() / static_cast<double>(calls);
  g_sink = acc;
  return ns;
}

}  // namespace

std::shared_ptr<const blink::Predicate> NarrowPredicate() {
  static const auto p = ParsePredicate("num0>=0.99");
  return p;
}

std::shared_ptr<const blink::Predicate> WidePredicate() {
  static const auto p = ParsePredicate("num0>=0.8");
  return p;
}

void ProbeSimd(MatrixViewF base, uint64_t seed, Report* report) {
  const size_t n = base.rows, d = base.cols;
  blink::LvqDataset::Options o4, o8;
  o4.bits = 4;
  o8.bits = 8;
  blink::LvqDataset lvq4, lvq8;
  {
    ScopedSpan span("quant.encode_lvq4_lvq8");
    lvq4 = blink::LvqDataset::Encode(base, o4);
    lvq8 = blink::LvqDataset::EncodeWithMean(base, lvq4.mean(), o8);
  }
  std::vector<blink::Float16> f16(n * d);
  for (size_t i = 0; i < n * d; ++i) f16[i] = blink::Float16(base.data[i]);

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  blink::Rng rng(seed ^ 0x51dd);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  // The query is a base row (raw for the float kernels, mean-centered for
  // the LVQ ones, as the search path passes it).
  const float* q = base.data + static_cast<size_t>(order[0]) * d;
  std::vector<float> qc(d);
  for (size_t j = 0; j < d; ++j) qc[j] = q[j] - lvq4.mean()[j];

  const double kMin = 0.05;
  auto l2u4 = blink::simd::GetL2U4(d);
  auto l2u8 = blink::simd::GetL2U8(d);
  auto l2f16 = blink::simd::GetL2F16(d);
  auto l2f32 = blink::simd::GetL2F32(d);
  report->Set("simd.lvq4_ns",
              NsPerCall(order, kMin, "simd.lvq4", [&](uint32_t r) {
                const blink::LvqConstants c = lvq4.constants(r);
                return l2u4(qc.data(), lvq4.codes(r), c.delta, c.lower, d);
              }));
  report->Set("simd.lvq8_ns",
              NsPerCall(order, kMin, "simd.lvq8", [&](uint32_t r) {
                const blink::LvqConstants c = lvq8.constants(r);
                return l2u8(qc.data(), lvq8.codes(r), c.delta, c.lower, d);
              }));
  report->Set("simd.f16_ns",
              NsPerCall(order, kMin, "simd.f16", [&](uint32_t r) {
                return l2f16(q, f16.data() + static_cast<size_t>(r) * d, d);
              }));
  report->Set("simd.f32_ns",
              NsPerCall(order, kMin, "simd.f32", [&](uint32_t r) {
                return l2f32(q, base.data + static_cast<size_t>(r) * d, d);
              }));
  // Bytes one LVQ-4 distance reads: the packed codes plus the two float16
  // constants (padding is not read).
  report->Set("simd.bytes_per_distance",
              static_cast<double>(blink::LvqDataset::kHeaderBytes +
                                  (d * 4 + 7) / 8));
}

void ProbeQuant(MatrixViewF base, blink::ThreadPool* pool, Report* report) {
  blink::LvqDataset2::Options o;
  o.bits1 = 4;
  o.bits2 = 8;
  blink::Timer t;
  blink::LvqDataset2 ds;
  {
    ScopedSpan span("quant.encode");
    ds = blink::LvqDataset2::Encode(base, o, pool);
  }
  report->Set("quant.encode_us_per_vector",
              t.Micros() / static_cast<double>(base.rows));
  report->Set("quant.bytes_per_vector",
              static_cast<double>(ds.vector_footprint()));
}

void ProbeFilter(const blink::MetadataStore& md, Report* report) {
  const size_t n = md.size();
  struct Case {
    const char* name;
    std::shared_ptr<const blink::Predicate> pred;
  };
  const Case cases[] = {{"narrow", NarrowPredicate()},
                        {"wide", WidePredicate()}};
  size_t calls = 0;
  double ns_total = 0.0;
  for (const Case& c : cases) {
    size_t pass = 0;
    blink::Timer t;
    {
      ScopedSpan span("filter.predicate_scan");
      for (uint32_t id = 0; id < n; ++id) {
        pass += blink::MatchesPredicate(md, *c.pred, id);
      }
    }
    ns_total += t.Nanos();
    calls += n;
    const std::string base = std::string("filter.");
    const double actual = static_cast<double>(pass) / static_cast<double>(n);
    const double estimate = blink::EstimateSelectivity(md, *c.pred);
    report->Set(base + "selectivity_" + c.name, actual);
    report->Set(base + "selectivity_" + c.name + "_est_error",
                actual > 0 ? std::abs(estimate - actual) / actual : 0.0);
    report->Set(base + "strategy_" + c.name,
                static_cast<double>(blink::ResolveFilterStrategy(
                    md, *c.pred, blink::FilterStrategy::kAuto)));
  }
  report->Set("filter.predicate_ns", ns_total / static_cast<double>(calls));
}

void ProbeNetCodec(MatrixViewF queries, size_t k,
                   const blink::SearchOptions& options, Report* report) {
  const size_t reps = 20000;
  size_t bytes = 0;
  blink::Timer t;
  {
    ScopedSpan span("net.encode");
    for (size_t i = 0; i < reps; ++i) {
      const size_t row = i % queries.rows;
      MatrixViewF one(queries.data + row * queries.cols, 1, queries.cols);
      bytes += blink::net::EncodeSearchRequest(
                   one, static_cast<uint32_t>(k), options)
                   .size();
    }
  }
  report->Set("net.encode_ns", t.Nanos() / static_cast<double>(reps));

  blink::net::SearchResponse res;
  res.num_queries = 1;
  res.k = static_cast<uint32_t>(k);
  for (size_t j = 0; j < k; ++j) {
    res.ids.push_back(static_cast<uint32_t>(j * 7));
    res.dists.push_back(static_cast<float>(j));
  }
  const std::vector<uint8_t> payload = blink::net::EncodeSearchResponse(res);
  blink::net::SearchResponse out;
  size_t ok = 0;
  t.Reset();
  {
    ScopedSpan span("net.decode");
    for (size_t i = 0; i < reps; ++i) {
      ok += blink::net::DecodeSearchResponse(payload, &out).ok();
    }
  }
  report->Set("net.decode_ns", t.Nanos() / static_cast<double>(reps));
  g_sink = static_cast<float>(bytes + ok);
}

void ProbeRerank(const blink::Index& index, MatrixViewF queries,
                 const blink::Matrix<uint32_t>& truth, size_t k,
                 const blink::SearchOptions& options, Report* report) {
  std::unique_ptr<blink::Searcher> searcher = index.MakeSearcher();
  std::vector<uint32_t> ids(k);
  std::vector<float> dists(k);
  blink::SearchOptions off = options;
  off.rerank = false;
  double us[2] = {0, 0}, recall[2] = {0, 0};
  size_t scored[2] = {0, 0};
  // Two passes each, alternating, so drift hits both configurations alike.
  for (int pass = 0; pass < 4; ++pass) {
    const int which = pass % 2;
    const blink::SearchOptions& o = which == 0 ? options : off;
    const char* name = which == 0 ? "rerank.search_on" : "rerank.search_off";
    for (size_t i = 0; i < queries.rows; ++i) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(name, i);
        searcher->Search(queries.data + i * queries.cols, k, o, ids.data(),
                         dists.data(), nullptr);
      }
      us[which] += static_cast<double>(NowNs() - t0) / 1e3;
      const double r = RowRecall(ids.data(), truth.row(i), k);
      if (r >= 0) {
        recall[which] += r;
        ++scored[which];
      }
    }
  }
  const double per = static_cast<double>(queries.rows) * 2;
  report->Set("rerank.us_per_query", us[0] / per - us[1] / per);
  report->Set("rerank.recall_gain",
              recall[0] / static_cast<double>(std::max<size_t>(1, scored[0])) -
                  recall[1] /
                      static_cast<double>(std::max<size_t>(1, scored[1])));
}

void SetGraphMetrics(const std::vector<double>& search_us, uint64_t queries,
                     uint64_t distances, uint64_t hops, Report* report) {
  const double nq = static_cast<double>(std::max<uint64_t>(1, queries));
  report->Set("graph.distances_per_query", static_cast<double>(distances) / nq);
  report->Set("graph.hops_per_query", static_cast<double>(hops) / nq);
  const double p50 = Median(search_us);
  report->Set("graph.search_us_p50", p50);
  report->Set("graph.search_us_p99", PercentileOf(search_us, 99.0).value);
  double total_us = 0.0;
  for (double v : search_us) total_us += v;
  const double mean_ns =
      search_us.empty() ? 0.0
                        : total_us * 1e3 / static_cast<double>(search_us.size());
  report->Set("graph.ns_per_hop",
              hops == 0 ? 0.0 : mean_ns / (static_cast<double>(hops) / nq));
  report->Set("graph.ns_per_distance",
              distances == 0 ? 0.0
                             : mean_ns / (static_cast<double>(distances) / nq));
}

void ProbeGraph(const blink::Index& index, MatrixViewF queries, size_t k,
                const blink::SearchOptions& options, Report* report) {
  std::unique_ptr<blink::Searcher> searcher = index.MakeSearcher();
  std::vector<uint32_t> ids(k);
  std::vector<float> dists(k);
  blink::BatchStats stats;
  std::vector<double> us;
  // Enough passes for >= 1000 samples, the p99 floor.
  const size_t passes = (1000 + queries.rows - 1) / queries.rows;
  for (size_t p = 0; p < passes; ++p) {
    for (size_t i = 0; i < queries.rows; ++i) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span("graph.search", i);
        searcher->Search(queries.data + i * queries.cols, k, options,
                         ids.data(), dists.data(), &stats);
      }
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  SetGraphMetrics(us, us.size(), stats.distance_computations, stats.hops,
                  report);
}

void ProbeStandaloneLayers(MatrixViewF base, MatrixViewF queries,
                           const blink::MetadataStore& md, uint64_t seed,
                           size_t k, const blink::SearchOptions& options,
                           blink::ThreadPool* pool, Report* report) {
  ProbeSimd(base, seed, report);
  ProbeQuant(base, pool, report);
  ProbeFilter(md, report);
  ProbeNetCodec(queries, k, options, report);
}

}  // namespace perfbench
