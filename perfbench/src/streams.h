// Seeded input streams: which query each reader sends next and what the
// churn writer does next. Both are pure functions of the workload seed, so
// the same seed replays the same inputs however fast the program runs;
// their hashes are printed with every result.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One query of a reader's stream: a row of the query set and a class
/// (0 = unfiltered, 1 = narrow filter, 2 = wide filter where used).
struct QueryEvent {
  uint32_t row = 0;
  uint32_t cls = 0;
};

/// The i-th query of reader `stream`. Rows are uniform over
/// [0, num_rows), classes uniform over [0, num_classes).
QueryEvent QueryAt(uint64_t seed, uint64_t stream, uint64_t i,
                   size_t num_rows, size_t num_classes);

/// Order-sensitive hash of the first `count` queries of streams
/// [0, streams).
uint64_t QueryStreamHash(uint64_t seed, size_t streams, size_t count,
                         size_t num_rows, size_t num_classes);

/// One writer operation.
struct WriteOp {
  enum Kind : uint8_t { kInsert, kDelete, kConsolidate };
  Kind kind = kInsert;
  /// kInsert: index of the vector to insert (0, 1, 2, ... in script
  /// order). kDelete: a uniform 64-bit draw; the writer deletes the live id
  /// at position draw % live_count of its live list.
  uint64_t arg = 0;
};

/// The churn writer's script: inserts and deletes in turn, and a
/// Consolidate after every `consolidate_every`-th operation. The seed picks
/// which live id each delete removes.
class WriterScript {
 public:
  WriterScript(uint64_t seed, size_t consolidate_every)
      : seed_(seed), consolidate_every_(consolidate_every) {}

  WriteOp Next();

 private:
  uint64_t seed_;
  size_t consolidate_every_;
  uint64_t pos_ = 0;
  uint64_t inserts_ = 0;
};

/// Order-sensitive hash of the script's first `count` operations.
uint64_t WriterScriptHash(uint64_t seed, size_t consolidate_every,
                          size_t count);

}  // namespace perfbench
