#include "openloop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "stats.h"
#include "trace.h"
#include "util/prng.h"

namespace perfbench {

std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                     uint64_t seed) {
  std::vector<int64_t> due;
  blink::Rng rng(seed);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.UniformDouble()) / rate * 1e9;
    if (t >= horizon_ns) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

namespace {

void SleepUntilNs(int64_t target_ns) {
  const int64_t now = NowNs();
  if (target_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(target_ns - now));
  }
}

}  // namespace

std::vector<RequestTimes> RunOpenLoop(
    const std::vector<int64_t>& schedule, size_t workers, const SendFn& send,
    const std::function<void(int64_t start_ns)>& on_start,
    int64_t abandon_late_ns) {
  std::vector<RequestTimes> times(schedule.size());
  // 2 ms of head start so every worker is parked before the first due time.
  const int64_t start = NowNs() + 2'000'000;
  for (size_t i = 0; i < schedule.size(); ++i) {
    times[i].due_ns = start + schedule[i];
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> abandoned{false};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      // The default 50 us timer slack would make every wakeup late by
      // about that much; the generator's own lateness is what it reports.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= times.size()) return;
        RequestTimes& t = times[i];
        if (abandoned.load(std::memory_order_relaxed)) continue;
        SleepUntilNs(t.due_ns);
        t.send_ns = NowNs();
        if (abandon_late_ns > 0 && t.send_ns - t.due_ns > abandon_late_ns) {
          abandoned.store(true, std::memory_order_relaxed);
          continue;
        }
        t.sent = true;
        t.ok = send(w, i, t.due_ns);
        t.done_ns = NowNs();
      }
    });
  }
  if (on_start) on_start(start);
  for (std::thread& t : threads) t.join();
  return times;
}

RungResult SummarizeRung(double rate, const std::vector<RequestTimes>& times,
                         size_t workers) {
  RungResult r;
  r.rate = rate;
  if (times.empty()) return r;
  std::vector<double> lat, late;
  lat.reserve(times.size());
  late.reserve(times.size());
  int64_t last_done = times.front().due_ns;
  for (const RequestTimes& t : times) {
    if (!t.sent) {
      ++r.abandoned;
      continue;
    }
    ++r.attempted;
    late.push_back(static_cast<double>(t.send_ns - t.due_ns) / 1e3);
    if (!t.ok) {
      ++r.failed;
      continue;
    }
    lat.push_back(static_cast<double>(t.done_ns - t.due_ns) / 1e3);
    last_done = std::max(last_done, t.done_ns);
  }
  // Backlog at each due time: requests already due minus requests already
  // sent. Sampled over the schedule's horizon, so a generator that falls
  // behind shows a rising backlog even though it drains after the last due
  // time.
  std::vector<int64_t> sends;
  sends.reserve(times.size());
  for (const RequestTimes& t : times) {
    if (t.sent) sends.push_back(t.send_ns);
  }
  std::sort(sends.begin(), sends.end());
  std::vector<double> backlog(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    const size_t sent = static_cast<size_t>(
        std::upper_bound(sends.begin(), sends.end(), times[i].due_ns) -
        sends.begin());
    const size_t b = i + 1 > sent ? i + 1 - sent : 0;
    backlog[i] = static_cast<double>(b);
    r.backlog_max = std::max(r.backlog_max, b);
  }
  const size_t quarter = std::max<size_t>(1, times.size() / 4);
  const double head = Median(std::vector<double>(
      backlog.begin(), backlog.begin() + static_cast<std::ptrdiff_t>(quarter)));
  const double tail = Median(std::vector<double>(
      backlog.end() - static_cast<std::ptrdiff_t>(quarter), backlog.end()));
  r.backlog_growth = tail > head + static_cast<double>(workers);

  r.samples = lat.size();
  r.p50_us = Median(lat);
  r.p99_us = WindowedPercentile(lat, 99.0, kLatencyWindow, &r.windows);
  r.p90_us = WindowedPercentile(lat, 90.0, kLatencyWindow, &r.windows);
  r.late_p99_us = PercentileOf(late, 99.0).value;
  const double span_s =
      static_cast<double>(last_done - times.front().due_ns) / 1e9;
  r.achieved_qps = span_s > 0 ? static_cast<double>(lat.size()) / span_s : 0.0;
  return r;
}

double WindowedPercentile(const std::vector<double>& latency_us, double p,
                          size_t window, size_t* windows) {
  const size_t n = latency_us.size() / window;
  if (n < 2) {
    *windows = latency_us.empty() ? 0 : 1;
    return PercentileOf(latency_us, p).value;
  }
  std::vector<double> per_window;
  for (size_t w = 0; w < n; ++w) {
    const auto lo = latency_us.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto hi = w + 1 == n ? latency_us.end()
                               : lo + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(PercentileOf(std::vector<double>(lo, hi), p).value);
  }
  *windows = n;
  return Median(per_window);
}

bool RungPasses(const RungResult& r, double p99_limit_us) {
  return r.failed == 0 && r.abandoned == 0 && !r.backlog_growth &&
         r.samples > 0 && r.p99_us <= p99_limit_us;
}

int MaxPassingRung(const std::vector<RungResult>& rungs, double p99_limit_us) {
  for (size_t i = rungs.size(); i-- > 0;) {
    if (RungPasses(rungs[i], p99_limit_us)) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace perfbench
