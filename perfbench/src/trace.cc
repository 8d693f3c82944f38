#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

// Each thread appends to its own buffer; the registry only grows, so a
// buffer outlives its thread and Collect() can read it after the join.
// Ids are (thread index + 1) << 40 | local sequence, unique without any
// shared counter on the hot path.
struct Tracer::ThreadBuffer {
  uint32_t thread = 0;
  uint64_t next = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;  ///< indices into `spans` of open spans
};

namespace {

std::mutex g_registry_mu;
std::vector<std::unique_ptr<Tracer::ThreadBuffer>>& Registry() {
  static auto* r = new std::vector<std::unique_ptr<Tracer::ThreadBuffer>>();
  return *r;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer t;
  return t;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = static_cast<uint32_t>(Registry().size());
    local = buf.get();
    Registry().push_back(std::move(buf));
  }
  return local;
}

uint64_t Tracer::Begin(const char* name, uint64_t request, uint64_t parent) {
  if (!enabled()) return 0;
  return BeginAt(name, NowNs(), request, parent);
}

uint64_t Tracer::BeginAt(const char* name, int64_t start_ns, uint64_t request,
                         uint64_t parent) {
  if (!enabled()) return 0;
  ThreadBuffer* b = Local();
  Span s;
  s.name = name;
  s.id = (static_cast<uint64_t>(b->thread) + 1) << 40 | ++b->next;
  s.parent = parent != 0 ? parent
             : b->open.empty() ? 0
                               : b->spans[b->open.back()].id;
  s.request = request;
  s.thread = b->thread;
  s.start_ns = start_ns;
  b->open.push_back(b->spans.size());
  b->spans.push_back(s);
  return s.id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  ThreadBuffer* b = Local();
  // Spans close innermost-first; search from the top of the stack so a
  // mismatched End still closes the right span.
  for (size_t k = b->open.size(); k-- > 0;) {
    Span& s = b->spans[b->open[k]];
    if (s.id == id) {
      s.end_ns = now;
      b->open.erase(b->open.begin() + static_cast<std::ptrdiff_t>(k));
      return;
    }
  }
}

uint64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t request, uint64_t parent) {
  if (!enabled()) return 0;
  ThreadBuffer* b = Local();
  Span s;
  s.name = name;
  s.id = (static_cast<uint64_t>(b->thread) + 1) << 40 | ++b->next;
  s.parent = parent != 0 ? parent
             : b->open.empty() ? 0
                               : b->spans[b->open.back()].id;
  s.request = request;
  s.thread = b->thread;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  b->spans.push_back(s);
  return s.id;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lk(g_registry_mu);
  std::vector<Span> all;
  for (const auto& b : Registry()) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::vector<SpanSummary> SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0 && s.end_ns >= 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (const Span& s : spans) {
    if (s.end_ns < 0) continue;
    SpanSummary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      auto flush = [&] {
        if (cur_hi > cur_lo) covered += static_cast<double>(cur_hi - cur_lo);
      };
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          flush();
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      flush();
    }
    sum.total_us += dur / 1e3;
    sum.self_us += (dur - covered) / 1e3;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

std::vector<double> SpanDurationsUs(const std::vector<Span>& spans,
                                    const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.end_ns >= 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request,thread\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu,%llu,%u\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
