// Correctness checks applied to every result the benchmark receives. Any
// violation fails the run (non-zero exit, "correct": false) and counts as a
// failed operation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace perfbench {

/// Thread-safe violation tally; keeps the first few messages for the log.
class Violations {
 public:
  void Add(const std::string& what);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Up to the first five messages, one per line.
  std::string Sample() const;

 private:
  std::atomic<uint64_t> count_{0};
  mutable std::mutex mu_;
  std::string sample_;  ///< guarded by mu_
  int kept_ = 0;        ///< guarded by mu_
};

/// Checks one k-wide result row against the padding contract (valid ids
/// first, then kInvalidId with +inf distances), ids below `id_limit`, ids
/// unique within the row, finite and non-decreasing distances. Returns
/// nullptr when the row is well-formed, else a static description.
const char* CheckRow(const uint32_t* ids, const float* dists, size_t k,
                     uint64_t id_limit);

/// Valid (non-padding) entries of a row.
size_t ValidCount(const uint32_t* ids, size_t k);

/// |result ∩ truth| / |valid truth| over one row; ground-truth rows pad
/// with UINT32_MAX when fewer than k rows match a filter. Returns -1 when
/// the truth row is empty (the query is skipped in recall means).
double RowRecall(const uint32_t* ids, const uint32_t* truth, size_t k);

}  // namespace perfbench
