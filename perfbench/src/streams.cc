#include "streams.h"

namespace perfbench {

QueryEvent QueryAt(uint64_t seed, uint64_t stream, uint64_t i,
                   size_t num_rows, size_t num_classes) {
  const uint64_t h = Mix64(Mix64(seed ^ 0x5157u) ^ Mix64(stream + 1) ^ i);
  QueryEvent e;
  e.row = static_cast<uint32_t>((h >> 16) % num_rows);
  e.cls = static_cast<uint32_t>((h & 0xffff) % num_classes);
  return e;
}

uint64_t QueryStreamHash(uint64_t seed, size_t streams, size_t count,
                         size_t num_rows, size_t num_classes) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (size_t s = 0; s < streams; ++s) {
    for (size_t i = 0; i < count; ++i) {
      const QueryEvent e = QueryAt(seed, s, i, num_rows, num_classes);
      h = Mix64(h ^ (static_cast<uint64_t>(e.row) << 8 | e.cls));
    }
  }
  return h;
}

WriteOp WriterScript::Next() {
  WriteOp op;
  const uint64_t i = pos_++;
  if (consolidate_every_ > 0 && (i + 1) % consolidate_every_ == 0) {
    op.kind = WriteOp::kConsolidate;
    return op;
  }
  // Inserts and deletes alternate, so the live set keeps its size instead
  // of random-walking away from it over a run.
  if (i % 2 == 0) {
    op.kind = WriteOp::kInsert;
    op.arg = inserts_++;
  } else {
    op.kind = WriteOp::kDelete;
    op.arg = Mix64(Mix64(seed_ ^ 0x77c1u) ^ i);
  }
  return op;
}

uint64_t WriterScriptHash(uint64_t seed, size_t consolidate_every,
                          size_t count) {
  WriterScript script(seed, consolidate_every);
  uint64_t h = 0x13198a2e03707344ull;
  for (size_t i = 0; i < count; ++i) {
    const WriteOp op = script.Next();
    h = Mix64(h ^ (op.arg * 4 + op.kind));
  }
  return h;
}

}  // namespace perfbench
