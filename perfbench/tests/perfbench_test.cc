// Unit tests of the benchmark's own machinery: the percentile rule,
// open-loop accounting, the max-rate ladder rule, seeded input streams, the
// result checks, span self time, and agreement between the metric registry
// and BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "checks.h"
#include "eval/interface.h"
#include "eval/report.h"
#include "metrics.h"
#include "openloop.h"
#include "stats.h"
#include "streams.h"
#include "trace.h"
#include "util/io.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileRule, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(OneTo(19)).percentile, 0.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(20)).percentile, 50.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(40)).percentile, 75.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(100)).percentile, 90.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(999)).percentile, 95.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(1000)).percentile, 99.0);
  EXPECT_EQ(HighestSupportedPercentile(OneTo(10000)).percentile, 99.9);
}

TEST(PercentileRule, ReportsValueAndSampleCount) {
  const Tail t = HighestSupportedPercentile(OneTo(1000));
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_NEAR(t.value, 990.01, 1e-9);  // linear interpolation
  EXPECT_TRUE(SupportsPercentile(1000, 99.0));
  EXPECT_FALSE(SupportsPercentile(999, 99.0));
}

TEST(WindowedPercentile, OneStalledWindowDoesNotMoveTheMedian) {
  std::vector<double> lat(5000, 100.0);
  for (size_t i = 0; i < 1000; ++i) lat[i] = 100.0 + static_cast<double>(i % 7);
  for (size_t i = 2000; i < 2100; ++i) lat[i] = 20000.0;  // a 100-request stall
  size_t windows = 0;
  const double p99 = WindowedPercentile(lat, 99.0, kLatencyWindow, &windows);
  EXPECT_EQ(windows, 5u);
  EXPECT_LT(p99, 200.0);
  EXPECT_GT(PercentileOf(lat, 99.0).value, 10000.0);  // the plain p99 jumps
}

// A stub server that stalls once: request 10 takes 50 ms, every other one
// 100 us. Requests are due every 2 ms on one connection, so the stall
// delays the requests behind it; measured from their due times those
// requests are slow, while their service times stay short.
TEST(OpenLoop, StallRaisesLatencyOfLaterRequestsFromDueTime) {
  std::vector<int64_t> schedule;
  for (int i = 0; i < 60; ++i) schedule.push_back(int64_t{i} * 2'000'000);
  const std::vector<RequestTimes> t = RunOpenLoop(
      schedule, 1, [](size_t, size_t i, int64_t) {
        std::this_thread::sleep_for(i == 10 ? std::chrono::milliseconds(50)
                                            : std::chrono::microseconds(100));
        return true;
      });
  ASSERT_EQ(t.size(), 60u);
  auto from_due_us = [&](size_t i) {
    return static_cast<double>(t[i].done_ns - t[i].due_ns) / 1e3;
  };
  auto service_us = [&](size_t i) {
    return static_cast<double>(t[i].done_ns - t[i].send_ns) / 1e3;
  };
  EXPECT_LT(from_due_us(5), 10'000.0);
  EXPECT_GE(from_due_us(10), 50'000.0);
  // Request 11 was due 2 ms after request 10 but could only be sent when
  // the stall ended ~48 ms later.
  EXPECT_GE(from_due_us(11), 45'000.0);
  EXPECT_LT(service_us(11), 10'000.0);
  EXPECT_GE(t[11].send_ns - t[11].due_ns, 45'000'000);
  // The stall's wake decays: each later request is less late.
  EXPECT_GT(from_due_us(11), from_due_us(20));
  const RungResult r = SummarizeRung(500.0, t, 1);
  EXPECT_EQ(r.attempted, 60u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.backlog_max, 20u);
  EXPECT_GE(r.late_p99_us, 40'000.0);
}

TEST(OpenLoop, AbandonsARungThatFallsHopelesslyBehind) {
  std::vector<int64_t> schedule;
  for (int i = 0; i < 200; ++i) schedule.push_back(int64_t{i} * 100'000);
  const std::vector<RequestTimes> t = RunOpenLoop(
      schedule, 1,
      [](size_t, size_t, int64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return true;
      },
      nullptr, 5'000'000);
  const RungResult r = SummarizeRung(10000.0, t, 1);
  EXPECT_GT(r.abandoned, 0u);
  EXPECT_EQ(r.attempted + r.abandoned, 200u);
  EXPECT_FALSE(RungPasses(r, 1e12));
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasTheRate) {
  const std::vector<int64_t> a = PoissonSchedule(4000, 2.0, 7);
  EXPECT_EQ(a, PoissonSchedule(4000, 2.0, 7));
  EXPECT_NE(a, PoissonSchedule(4000, 2.0, 8));
  EXPECT_NEAR(static_cast<double>(a.size()), 8000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

// Synthetic rung results from an M/M/1-like latency curve,
// p99(rate) = 400 / (1 - rate / capacity) us.
RungResult SyntheticRung(double rate, double capacity) {
  RungResult r;
  r.rate = rate;
  r.attempted = r.samples = 5000;
  r.achieved_qps = std::min(rate, capacity);
  r.p99_us = rate < capacity ? 400.0 / (1.0 - rate / capacity)
                             : std::numeric_limits<double>::infinity();
  r.backlog_growth = rate >= capacity;
  return r;
}

TEST(Ladder, HighestRateUnderTheLimitOnASyntheticCurve) {
  const double rates[] = {2000, 4000, 8000, 16000, 32000};
  std::vector<RungResult> rungs;
  for (double rate : rates) rungs.push_back(SyntheticRung(rate, 10000));
  // p99: 500, 667, 2000, inf, inf.
  EXPECT_EQ(MaxPassingRung(rungs, 1000.0), 1);
  EXPECT_EQ(MaxPassingRung(rungs, 2001.0), 2);
  EXPECT_EQ(MaxPassingRung(rungs, 400.0), -1);
  // A faster system moves the answer up the ladder.
  std::vector<RungResult> faster;
  for (double rate : rates) faster.push_back(SyntheticRung(rate, 40000));
  EXPECT_EQ(MaxPassingRung(faster, 1000.0), 3);
}

TEST(Ladder, FailuresAbandonmentAndBacklogGrowthDisqualify) {
  std::vector<RungResult> rungs;
  for (double rate : {2000.0, 4000.0, 8000.0}) {
    rungs.push_back(SyntheticRung(rate, 100000));
  }
  EXPECT_EQ(MaxPassingRung(rungs, 1000.0), 2);
  rungs[2].failed = 1;
  EXPECT_EQ(MaxPassingRung(rungs, 1000.0), 1);
  rungs[1].abandoned = 3;
  EXPECT_EQ(MaxPassingRung(rungs, 1000.0), 0);
  rungs[0].backlog_growth = true;
  EXPECT_EQ(MaxPassingRung(rungs, 1000.0), -1);
}

TEST(Ladder, BacklogGrowthIsDetectedFromSendTimes) {
  // Requests due every 1 ms but served every 2 ms by one worker: the
  // generator falls further behind with every request.
  std::vector<RequestTimes> t(400);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i].due_ns = static_cast<int64_t>(i) * 1'000'000;
    t[i].send_ns = static_cast<int64_t>(i) * 2'000'000;
    t[i].done_ns = t[i].send_ns + 1'900'000;
    t[i].sent = t[i].ok = true;
  }
  EXPECT_TRUE(SummarizeRung(1000, t, 1).backlog_growth);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i].send_ns = t[i].due_ns + 10'000;
    t[i].done_ns = t[i].send_ns + 500'000;
  }
  EXPECT_FALSE(SummarizeRung(1000, t, 1).backlog_growth);
  // One 20 ms stall in the last quarter piles up 20 requests that drain
  // right after it: not growth.
  for (size_t i = 330; i < 350; ++i) t[i].send_ns = 350'000'000;
  const RungResult stalled = SummarizeRung(1000, t, 1);
  EXPECT_GE(stalled.backlog_max, 19u);
  EXPECT_FALSE(stalled.backlog_growth);
}

TEST(Streams, SameSeedSameQueryStreamAndWriterScript) {
  EXPECT_EQ(QueryStreamHash(1, 3, 5000, 600, 3),
            QueryStreamHash(1, 3, 5000, 600, 3));
  EXPECT_NE(QueryStreamHash(1, 3, 5000, 600, 3),
            QueryStreamHash(2, 3, 5000, 600, 3));
  EXPECT_EQ(WriterScriptHash(1, 4000, 100000),
            WriterScriptHash(1, 4000, 100000));
  EXPECT_NE(WriterScriptHash(1, 4000, 100000),
            WriterScriptHash(2, 4000, 100000));
}

TEST(Streams, SampledQueriesAreSeededAndDistinct) {
  blink::MatrixF pool(100, 2);
  for (size_t i = 0; i < 100; ++i) {
    pool.row(i)[0] = static_cast<float>(i);
    pool.row(i)[1] = 0.0f;
  }
  const blink::MatrixF a = SampleRows(pool, 40, 3);
  const blink::MatrixF b = SampleRows(pool, 40, 3);
  const blink::MatrixF c = SampleRows(pool, 40, 4);
  std::vector<float> rows_a, rows_c;
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(a.row(i)[0], b.row(i)[0]);
    rows_a.push_back(a.row(i)[0]);
    rows_c.push_back(c.row(i)[0]);
  }
  EXPECT_NE(rows_a, rows_c);
  std::sort(rows_a.begin(), rows_a.end());
  EXPECT_EQ(std::adjacent_find(rows_a.begin(), rows_a.end()), rows_a.end());
}

TEST(Streams, WriterScriptShape) {
  WriterScript script(5, 10);
  uint64_t inserts = 0, deletes = 0;
  for (int i = 1; i <= 1000; ++i) {
    const WriteOp op = script.Next();
    if (i % 10 == 0) {
      EXPECT_EQ(op.kind, WriteOp::kConsolidate);
    } else if (op.kind == WriteOp::kInsert) {
      EXPECT_EQ(op.arg, inserts);  // pool rows in order
      ++inserts;
    } else {
      ASSERT_EQ(op.kind, WriteOp::kDelete);
      ++deletes;
    }
  }
  EXPECT_NEAR(static_cast<double>(inserts), 450.0, 60.0);
  EXPECT_EQ(inserts + deletes, 900u);
}

TEST(Checks, RowContract) {
  const float inf = std::numeric_limits<float>::infinity();
  const uint32_t bad = blink::kInvalidId;
  {
    uint32_t ids[4] = {3, 1, bad, bad};
    float d[4] = {0.1f, 0.2f, inf, inf};
    EXPECT_EQ(CheckRow(ids, d, 4, 10), nullptr);
    EXPECT_EQ(ValidCount(ids, 4), 2u);
  }
  {
    uint32_t ids[3] = {3, 3, 1};
    float d[3] = {0.1f, 0.2f, 0.3f};
    EXPECT_NE(CheckRow(ids, d, 3, 10), nullptr);  // duplicate
  }
  {
    uint32_t ids[3] = {3, 4, 1};
    float d[3] = {0.3f, 0.2f, 0.4f};
    EXPECT_NE(CheckRow(ids, d, 3, 10), nullptr);  // decreasing
  }
  {
    uint32_t ids[2] = {3, 12};
    float d[2] = {0.1f, 0.2f};
    EXPECT_NE(CheckRow(ids, d, 2, 10), nullptr);  // out of range
  }
  {
    uint32_t ids[3] = {3, bad, 1};
    float d[3] = {0.1f, inf, 0.3f};
    EXPECT_NE(CheckRow(ids, d, 3, 10), nullptr);  // id after padding
  }
  {
    uint32_t ids[2] = {3, bad};
    float d[2] = {0.1f, 0.5f};
    EXPECT_NE(CheckRow(ids, d, 2, 10), nullptr);  // padding without +inf
  }
}

TEST(Checks, RecallAgainstPaddedTruth) {
  const uint32_t ids[4] = {1, 2, 3, 4};
  const uint32_t truth[4] = {2, 9, UINT32_MAX, UINT32_MAX};
  EXPECT_DOUBLE_EQ(RowRecall(ids, truth, 4), 0.5);
  const uint32_t none[4] = {UINT32_MAX, UINT32_MAX, UINT32_MAX, UINT32_MAX};
  EXPECT_LT(RowRecall(ids, none, 4), 0.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"parent", 0, 100'000, 1, 0, 7, 0};
  spans[1] = {"child", 10'000, 30'000, 2, 1, 7, 0};
  spans[2] = {"child", 20'000, 50'000, 3, 1, 7, 0};
  const std::vector<SpanSummary> s = SummarizeSpans(spans);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1].name, "parent");
  EXPECT_DOUBLE_EQ(s[1].total_us, 100.0);
  EXPECT_DOUBLE_EQ(s[1].self_us, 60.0);
  EXPECT_EQ(s[0].count, 2u);
  EXPECT_DOUBLE_EQ(s[0].self_us, 50.0);
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  Tracer::Get().SetEnabled(false);
  const size_t before = Tracer::Get().Collect().size();
  { ScopedSpan span("off"); }
  EXPECT_EQ(Tracer::Get().Collect().size(), before);
  Tracer::Get().SetEnabled(true);
  { ScopedSpan outer("outer"); ScopedSpan inner("inner"); }
  Tracer::Get().SetEnabled(false);
  const std::vector<Span> spans = Tracer::Get().Collect();
  ASSERT_EQ(spans.size(), before + 2);
  EXPECT_EQ(spans[before + 1].parent, spans[before].id);
}

// BENCHMARK.json and the registry in metrics.cc must name the same
// metrics, with the same units, directions and bounds.
TEST(Registry, MatchesBenchmarkJson) {
  blink::Result<std::string> text = blink::ReadTextFile(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  blink::Result<blink::json::Value> doc = blink::json::Parse(text.value());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto check = [](const blink::json::Value* list,
                  const std::vector<MetricDef>& defs, bool bounds) {
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->is_array());
    ASSERT_EQ(list->as_array().size(), defs.size());
    for (size_t i = 0; i < defs.size(); ++i) {
      const blink::json::Value& m = list->as_array()[i];
      EXPECT_EQ(m.Find("name")->as_string(), defs[i].name);
      EXPECT_EQ(m.Find("unit")->as_string(), defs[i].unit);
      EXPECT_EQ(m.Find("better")->as_string(), defs[i].better);
      if (bounds) EXPECT_DOUBLE_EQ(m.Find("bound")->as_number(), defs[i].bound);
    }
  };
  check(doc.value().Find("end_to_end"), EndToEndMetrics(), true);
  check(doc.value().Find("per_layer"), PerLayerMetrics(), false);
}

}  // namespace
}  // namespace perfbench
