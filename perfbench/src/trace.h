// In-memory span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into the library's layers (api, graph, rerank, simd, quant, filter,
// dynamic, serve, net) and around the load generator's own steps. Each
// span holds its name, start and end (steady clock, ns since process
// start), the span that caused it and the request it belongs to. Spans are
// kept in per-thread buffers, never written during the run, and are dumped
// and summarized when the run ends.
//
// When tracing is off every call is a branch on one relaxed atomic load,
// so the untraced run measures the program, not the recorder.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

struct Span {
  const char* name = nullptr;  ///< a string literal: "graph.search", ...
  int64_t start_ns = 0;
  int64_t end_ns = -1;         ///< -1 while open
  uint64_t id = 0;             ///< unique in the run, never 0
  uint64_t parent = 0;         ///< 0 = root
  uint64_t request = 0;        ///< spans of one request share this
  uint32_t thread = 0;
};

/// Aggregate of every span with one name.
struct SpanSummary {
  std::string name;
  size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus the part covered by child spans
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread. `parent` 0 means "the innermost
  /// open span of this thread" (root when none). Returns 0 when disabled.
  uint64_t Begin(const char* name, uint64_t request = 0, uint64_t parent = 0);
  /// Begin with an explicit start time (e.g. a request's due time, which
  /// may precede the call).
  uint64_t BeginAt(const char* name, int64_t start_ns, uint64_t request = 0,
                   uint64_t parent = 0);
  /// Closes a span opened by Begin on the same thread (no-op for 0).
  void End(uint64_t id);
  /// Records a finished span with explicit times (e.g. a request measured
  /// from its due time). Returns its id, 0 when disabled.
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t request = 0, uint64_t parent = 0);

  /// Every span recorded so far, across threads, in id order. Call only
  /// when no other thread is recording.
  std::vector<Span> Collect() const;

  struct ThreadBuffer;  ///< one per recording thread (trace.cc)

 private:
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
};

/// RAII span; does nothing when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0,
                      uint64_t parent = 0)
      : id_(Tracer::Get().enabled()
                ? Tracer::Get().Begin(name, request, parent)
                : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

/// Per-name count, total and self time. Self time is each span's duration
/// minus the union of its children's intervals clipped to it.
std::vector<SpanSummary> SummarizeSpans(const std::vector<Span>& spans);

/// Durations (us) of every closed span named `name`.
std::vector<double> SpanDurationsUs(const std::vector<Span>& spans,
                                    const char* name);

/// Writes spans as CSV (name,start_ns,end_ns,id,parent,request,thread).
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
