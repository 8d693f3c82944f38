// Open-loop load generation for the net-open workload.
//
// Independent users make an open loop: requests are due on a seeded
// Poisson schedule regardless of how fast earlier ones complete. A fixed
// set of worker threads (one connection each) claims requests in due
// order, sleeps until each is due and sends it. When every worker is busy
// the request waits in the generator; its latency is measured from its
// due time, so a stall is charged to every request queued behind it, and
// the lateness (send time minus due time) and backlog (requests due but
// not yet sent) are reported so the generator itself can be checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Due offsets (ns from the rung start) of a Poisson arrival process at
/// `rate` per second over `seconds`. Deterministic in `seed`.
std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                     uint64_t seed);

/// Times of one request, all in NowNs() units.
struct RequestTimes {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  bool sent = false;  ///< false when the generator abandoned the rung
  bool ok = false;
};

/// Sends request `index` (due at `due_ns`) on worker `worker`'s connection
/// and blocks until it completes; returns false when it failed or was
/// refused.
using SendFn =
    std::function<bool(size_t worker, size_t index, int64_t due_ns)>;

/// Runs one rung: `workers` threads work through `schedule` (offsets from
/// a start a little after the call). Returns one entry per request, in
/// schedule order. `on_start`, when set, runs on the calling thread with
/// the absolute start time before it waits for the workers. When
/// `abandon_late_ns` > 0 and a request would be sent that much after its
/// due time, the generator is hopelessly behind: it stops sending and the
/// remaining requests are returned unsent.
std::vector<RequestTimes> RunOpenLoop(
    const std::vector<int64_t>& schedule, size_t workers, const SendFn& send,
    const std::function<void(int64_t start_ns)>& on_start = nullptr,
    int64_t abandon_late_ns = 0);

/// Requests per latency window: a rung's p99 is the median of the p99s of
/// consecutive windows of this many requests, so one stall moves one
/// window, not the rung.
inline constexpr size_t kLatencyWindow = 1000;

/// What one rung measured.
struct RungResult {
  double rate = 0.0;          ///< offered requests per second
  size_t attempted = 0;       ///< requests sent
  size_t failed = 0;
  size_t abandoned = 0;       ///< requests the generator never sent
  double achieved_qps = 0.0;  ///< completed / (last completion - first due)
  double p50_us = 0.0;        ///< latency from due time
  double p90_us = 0.0;        ///< median of the windows' p90s
  double p99_us = 0.0;        ///< median of the windows' p99s
  size_t samples = 0;         ///< latency samples (completed requests)
  size_t windows = 0;
  double late_p99_us = 0.0;   ///< send minus due
  size_t backlog_max = 0;     ///< requests due but unsent, at any due time
  bool backlog_growth = false;
};

/// Summarizes a rung. The backlog is sampled at every due time; growth
/// means its median over the last quarter of the schedule exceeds that over
/// the first quarter by more than `workers`. A generator that keeps up
/// stays at the same level, and the median ignores the brief pile-up one
/// host stall leaves behind, which a mean counted as growth.
RungResult SummarizeRung(double rate, const std::vector<RequestTimes>& times,
                         size_t workers);

/// The p-th percentile of `latency_us` (in due order) as the median of the
/// p-th percentiles of consecutive windows of `window` samples (the last
/// window absorbs the remainder); the plain percentile when fewer than two
/// windows fit. `*windows` receives the window count.
double WindowedPercentile(const std::vector<double>& latency_us, double p,
                          size_t window, size_t* windows);

/// Whether a rung meets the latency limit with zero failures, nothing
/// abandoned and no backlog growth.
bool RungPasses(const RungResult& r, double p99_limit_us);

/// Index of the highest passing rung, or -1 when none passes. Rungs are in
/// increasing rate order; the caller stops the ladder at the first failing
/// rung above its reference rung.
int MaxPassingRung(const std::vector<RungResult>& rungs, double p99_limit_us);

}  // namespace perfbench
