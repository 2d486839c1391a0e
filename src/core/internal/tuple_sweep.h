// Internal helper: the shared machinery of the tuple-level sweep kernels.
// Not part of the public API.
//
// rank_distribution_tuple.cc and the pruned top-k kernels (quantile and
// median rank, PT-k, Global-Topk, U-kRanks) must produce bit-identical
// per-tuple distributions, so the sweep primitives they share live here
// exactly once: the (score desc, index asc) rank order, the deterministic
// chunk grid, the chunk-entry prefix replay, the incremental Poisson-
// binomial chunk sweep, the serial chunk-grid driver with its stop hook,
// and the shared absent-branch world-size state. Everything is a pure
// function of the relation and tie policy — the thread count never
// enters — which is what keeps serial, parallel and pruned executions on
// the identical chunk subproblems (docs/PERFORMANCE.md).

#ifndef URANK_CORE_INTERNAL_TUPLE_SWEEP_H_
#define URANK_CORE_INTERNAL_TUPLE_SWEEP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/internal/kernel_arena.h"
#include "core/internal/vector_kernels.h"
#include "core/rank_distribution_tuple.h"
#include "core/ranking.h"
#include "model/tuple_model.h"
#include "model/types.h"
#include "util/kernel_annotations.h"

namespace urank {
namespace internal {

// Probabilities below this are treated as exactly 0/1 by the sweeps.
inline constexpr double kTupleSweepProbEps = 1e-12;

// PbConvolveTrial / PbDeconvolveTrial on arena-backed aligned buffers,
// dispatched through the active vector-kernel table. Preconditions are the
// kernel invariants (p in (0,1], non-empty pmf) already enforced upstream.
void BufConvolveTrial(const vk::KernelOps& ops, AlignedBuf* pmf, double p);
bool BufDeconvolveTrial(const vk::KernelOps& ops, const AlignedBuf& src,
                        double p, AlignedBuf* out);

// Index order sorted by (score desc, index asc): the sweep order in which
// "already processed" means "ranked above" (exactly, under kBreakByIndex;
// up to the current equal-score run, under kStrictGreater).
std::vector<int> TupleRankOrder(const TupleRelation& rel);

// Deterministic sweep grid: chunk start positions into `order`, aligned to
// equal-score run starts (a run must never straddle chunks — its members
// share one "ranked above" prefix), work-balanced by a per-position cost
// of 1 + (distinct rules touched so far), which tracks the Poisson-
// binomial support the sweep carries at that position. A pure function of
// the relation and tie policy — the thread count never enters, so every
// execution schedule solves the identical per-chunk subproblems.
std::vector<std::size_t> PlanTupleChunkStarts(const TupleRelation& rel,
                                              const std::vector<int>& order,
                                              TiePolicy ties);

// Replays the rule prefix masses the sweep would carry entering position
// `begin` — exactly the update the chunk flush applies, so chunk-entry
// state is bit-identical to what an unchunked sweep would hold there.
void ReplayTuplePrefix(const TupleRelation& rel, const std::vector<int>& order,
                       std::size_t begin, AlignedBuf* cur);

// Chunk-local sweep state: per-rule prefix masses plus the flat Poisson
// binomial over their nonzero entries. All updates go through arena-backed
// aligned buffers — the per-tuple loop performs no heap allocation once
// the buffers reach their high-water size — and all pmf arithmetic goes
// through one vector-kernel table captured at sweep entry.
struct ChunkSweep {
  const TupleRelation& rel;
  const vk::KernelOps& ops;
  AlignedBuf& cur;      // per-rule mass ranked above the cursor
  AlignedBuf& pmf;      // Poisson binomial over nonzero cur[]
  AlignedBuf& scratch;  // deconvolution ping-pong target

  // Rebuilds a pmf from cur in canonical rule-index order, skipping
  // `skip_rule` (-1 for none). Depends only on the mass values, so the
  // deconvolution fallback stays deterministic under any schedule.
  void Rebuild(AlignedBuf* out, int skip_rule) const;

  // The sweep pmf with rule r's current mass conditioned out; returns a
  // pointer to `pmf` itself when the rule carries no mass yet (no copy).
  const AlignedBuf* WithoutRule(int r, AlignedBuf* out) const;

  // Moves the tuple at position i into the "ranked above" prefix.
  void Flush(int i);
};

// Optional prune hook for SweepAppearChunk: invoked at every equal-score
// run boundary after the preceding run was flushed — including the chunk
// end, so a chunk-by-chunk driver can stop between chunks — with the
// position of the next unvisited tuple and the sweep's Poisson binomial
// over the per-rule masses of every flushed tuple (the exact `pmf` the
// next tuple's appear branch would condition on). Returning true stops
// the sweep there.
using TupleSweepStopFn = std::function<bool(std::size_t, const AlignedBuf&)>;

// Sweeps chunk positions [begin, end) of `order`, invoking
// per_tuple(i, appear) with the appear-branch pmf (the tuple's own rule
// conditioned out). Equal-score runs flush only after every member was
// visited, matching the kStrictGreater semantics of the unchunked sweep.
// `entry_mass`, when non-null, is the precomputed per-rule prefix state at
// `begin` (num_rules doubles, the exact ReplayTuplePrefix values) and
// replaces the O(begin) replay. `stop`, when non-null, is consulted at run
// boundaries (see TupleSweepStopFn); the return value is the position the
// sweep stopped at — `end` when it ran to completion. The stop hook never
// changes the values computed for visited tuples: it only truncates the
// sweep, so a pruned execution is a prefix of the unpruned one.
std::size_t SweepAppearChunk(
    const TupleRelation& rel, const std::vector<int>& order, TiePolicy ties,
    std::size_t begin, std::size_t end, const double* entry_mass,
    KernelArena* arena,
    const std::function<void(int, const AlignedBuf&)>& per_tuple,
    const TupleSweepStopFn* stop = nullptr);

// Serial driver of the whole deterministic chunk grid for the pruned
// kernels: sweeps chunk 0, 1, ... of `entries` (the memoized table for
// (rel, order, ties)) through SweepAppearChunk, starting each chunk from
// its precomputed entry state — the identical subproblems the parallel
// kernels solve, so every visited tuple's appear pmf is bit-identical to
// the unpruned sweep's. `stop` is consulted at every run boundary except
// the end of the order. Returns the position the sweep stopped at, or
// order.size() when it ran out. SweepAppearChunk uses arena slots 0-3; a
// caller holding a higher slot acquires it before the call.
std::size_t SweepChunkGrid(
    const TupleRelation& rel, const std::vector<int>& order, TiePolicy ties,
    const TupleSweepEntryTable& entries, KernelArena* arena,
    const std::function<void(int, const AlignedBuf&)>& per_tuple,
    const TupleSweepStopFn& stop);

// Absolute slack subtracted from every pruned kernel's stop bound. The
// bounds are proven for exact arithmetic, but the bounding CDFs are
// floating-point sums: when a true CDF equals the bound exactly
// (systematic at phi = 1, where a certain-tuple prefix makes the CDF 1),
// the computed sum can land a few ulps below it and fire the stop
// spuriously, while the unpruned kernel, crossing the same threshold on
// its own rounded sums, keeps the tuple. Requiring the computed bound to
// clear the threshold by this margin keeps every test strictly
// conservative. Declining to stop never affects the answer, only the
// scan length.
inline constexpr double kPruneStopSlack = 1e-9;

// True when pmf[0] + ... + pmf[count - 1] stays below `bound`, scanning
// with an early exit. When count covers the whole pmf its CDF is 1 by
// definition, so the test is 1 < bound.
bool PmfCdfBelow(const AlignedBuf& pmf, std::size_t count, double bound);

// Bounded max-heap of the k best (statistic, id) pairs under the
// library-wide (statistic asc, id asc) order: front() is the current k-th
// best. Fixed capacity, allocated once — offers never allocate.
struct KBestHeap {
  std::vector<std::pair<double, int>> slots;
  std::size_t len = 0;
  std::size_t want = 0;  // the requested k (may exceed slots.size())

  KBestHeap(int k, int n) : want(static_cast<std::size_t>(k)) {
    slots.resize(std::min(static_cast<std::size_t>(k),
                          static_cast<std::size_t>(n)));
  }

  bool full() const { return len == want; }
  double kth() const { return slots.front().first; }

  URANK_KERNEL void Offer(double stat, int id) {
    const std::pair<double, int> cand{stat, id};
    if (len < slots.size()) {
      slots[len++] = cand;
      std::push_heap(slots.begin(), slots.begin() + static_cast<long>(len));
    } else if (cand < slots.front()) {
      std::pop_heap(slots.begin(), slots.begin() + static_cast<long>(len));
      slots[len - 1] = cand;
      std::push_heap(slots.begin(), slots.begin() + static_cast<long>(len));
    }
  }

  // Drains into the (statistic asc, id asc) ranked answer.
  std::vector<RankedTuple> Ranked() {
    std::sort_heap(slots.begin(), slots.begin() + static_cast<long>(len));
    std::vector<RankedTuple> out(len);
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = RankedTuple{slots[i].second, slots[i].first};
    }
    return out;
  }
};

// Shared absent-branch state: the pristine world-size Poisson binomial
// over final rule masses. Built once, sequentially, in rule-index order;
// chunk workers only ever *read* pmf_all (deconvolving into their own
// arena buffers), so concurrent access needs no synchronization and the
// result cannot depend on tuple visit order.
struct AbsentContext {
  std::vector<double> rule_sums;  // min(rule mass, 1) per rule
  std::vector<double> pmf_all;    // Poisson binomial over nonzero sums

  explicit AbsentContext(const TupleRelation& rel);

  // Writes into `out` the world-size pmf with rule r's unconditional mass
  // replaced by `cond` (its mass conditioned on the reference tuple being
  // absent). Reads shared state only.
  void ConditionalWorldSize(const vk::KernelOps& ops, int r, double cond,
                            AlignedBuf* out) const;
};

// Entry-mass row for `chunk`, or null when no table was supplied.
inline const double* TupleSweepEntryRow(const TupleSweepEntryTable* entries,
                                        int chunk) {
  if (entries == nullptr || entries->num_rules == 0) return nullptr;
  return entries->entry_mass.data() +
         static_cast<std::size_t>(chunk) *
             static_cast<std::size_t>(entries->num_rules);
}

}  // namespace internal
}  // namespace urank

#endif  // URANK_CORE_INTERNAL_TUPLE_SWEEP_H_
