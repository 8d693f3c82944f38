#include "checks.h"

#include <cmath>

#include "eval/interface.h"

namespace perfbench {

void Violations::Add(const std::string& what) {
  count_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (kept_ < 5) {
    sample_ += what;
    sample_ += '\n';
    ++kept_;
  }
}

std::string Violations::Sample() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sample_;
}

const char* CheckRow(const uint32_t* ids, const float* dists, size_t k,
                     uint64_t id_limit) {
  bool padding = false;
  for (size_t j = 0; j < k; ++j) {
    if (ids[j] == blink::kInvalidId) {
      padding = true;
      if (!(std::isinf(dists[j]) && dists[j] > 0)) {
        return "padding slot without +inf distance";
      }
      continue;
    }
    if (padding) return "valid id after a padding slot";
    if (ids[j] >= id_limit) return "id out of range";
    if (!std::isfinite(dists[j])) return "non-finite distance for a valid id";
    if (j > 0 && dists[j] < dists[j - 1]) return "distances decrease";
    for (size_t i = 0; i < j; ++i) {
      if (ids[i] == ids[j]) return "duplicate id in a row";
    }
  }
  return nullptr;
}

size_t ValidCount(const uint32_t* ids, size_t k) {
  size_t n = 0;
  for (size_t j = 0; j < k; ++j) n += ids[j] != blink::kInvalidId;
  return n;
}

double RowRecall(const uint32_t* ids, const uint32_t* truth, size_t k) {
  size_t truth_n = 0, hit = 0;
  for (size_t j = 0; j < k; ++j) {
    if (truth[j] == UINT32_MAX) continue;
    ++truth_n;
    for (size_t i = 0; i < k; ++i) {
      if (ids[i] == truth[j]) {
        ++hit;
        break;
      }
    }
  }
  return truth_n == 0 ? -1.0
                      : static_cast<double>(hit) / static_cast<double>(truth_n);
}

}  // namespace perfbench
