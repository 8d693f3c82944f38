// Per-layer probes of the traced run. Each probe drives one layer through
// its public calls on the workload's own data and records spans around
// those calls; none of them runs in the untraced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "api/index.h"
#include "filter/metadata.h"
#include "metrics.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace perfbench {

/// The two filter predicates the benchmark uses, over numeric column 0 of
/// MakeSyntheticMetadata (uniform in [0, 1)): about 1% selectivity (below
/// the 5% crossover, so kAuto searches in-graph) and about 20% (above it,
/// so kAuto post-filters). Both bound the column from below, so a row that
/// is zeroed (a recycled slot not yet upserted) never matches.
std::shared_ptr<const blink::Predicate> NarrowPredicate();
std::shared_ptr<const blink::Predicate> WidePredicate();

/// simd.*: ns per call of GetL2U4/U8/F16/F32(d) over codes encoded from
/// `base`, rows in seeded random order.
void ProbeSimd(blink::MatrixViewF base, uint64_t seed, Report* report);

/// quant.*: LVQ-4x8 encode time and footprint over `base`.
void ProbeQuant(blink::MatrixViewF base, blink::ThreadPool* pool,
                Report* report);

/// filter.selectivity_*, filter.strategy_*, filter.predicate_ns over `md`.
void ProbeFilter(const blink::MetadataStore& md, Report* report);

/// net.encode_ns / net.decode_ns: the protocol codecs on a one-query
/// request and a k-row response.
void ProbeNetCodec(blink::MatrixViewF queries, size_t k,
                   const blink::SearchOptions& options, Report* report);

/// rerank.*: Searcher::Search at `options` and at the same options with
/// rerank off, on the same queries; the span difference per query and the
/// recall difference.
void ProbeRerank(const blink::Index& index, blink::MatrixViewF queries,
                 const blink::Matrix<uint32_t>& truth, size_t k,
                 const blink::SearchOptions& options, Report* report);

/// graph.*: spans around Searcher::Search plus its BatchStats, single
/// thread, on `queries`. Used where the timed phase does not itself call
/// the searcher (net-open).
void ProbeGraph(const blink::Index& index, blink::MatrixViewF queries,
                size_t k, const blink::SearchOptions& options,
                Report* report);

/// graph.* from already-recorded "graph.search" spans and work counters.
void SetGraphMetrics(const std::vector<double>& search_us,
                     uint64_t queries, uint64_t distances, uint64_t hops,
                     Report* report);

/// Every probe that needs only the base set and metadata (simd, quant,
/// filter, net codec).
void ProbeStandaloneLayers(blink::MatrixViewF base, blink::MatrixViewF queries,
                           const blink::MetadataStore& md, uint64_t seed,
                           size_t k, const blink::SearchOptions& options,
                           blink::ThreadPool* pool, Report* report);

}  // namespace perfbench
