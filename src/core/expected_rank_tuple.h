// Expected ranks in the tuple-level uncertainty model (paper Section 6).
//
// In a world where t_i appears, its rank is the number of appearing tuples
// ranked above it; in a world where it is absent, its rank is |W|
// (Definition 6). With tuples sorted by score the expected rank has the
// closed form of eq. (8):
//
//   r(t_i) = p_i (q_i − sameAbove_i) + S_i + (1 − p_i)(E|W| − p_i − S_i)
//
// where q_i is the probability mass of tuples ranked above t_i,
// sameAbove_i the above-mass within t_i's own exclusion rule, and S_i the
// rule's mass excluding t_i. Provided here:
//   * TupleExpectedRanksBruteForce — O(N²) direct evaluation (baseline);
//   * TupleExpectedRanks — T-ERank, O(N log N) (sort + prefix sums);
//   * TupleExpectedRankTopKPrune — T-ERank-Prune (Section 6.2): sweeps
//     the prepared shard plan in rank order, computes each visited tuple's
//     rank exactly, and stops when the k-th best rank is below the eq. (9)
//     lower bound for unvisited tuples. Unlike the attribute-level
//     pruning, the returned top-k is guaranteed to be the true top-k.

#ifndef URANK_CORE_EXPECTED_RANK_TUPLE_H_
#define URANK_CORE_EXPECTED_RANK_TUPLE_H_

#include <vector>

#include "core/ranking.h"
#include "model/tuple_model.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

class PreparedTupleRelation;  // core/engine/prepared_relation.h

namespace internal {
struct TupleShardPlan;  // core/internal/shard_plan.h
}  // namespace internal

// O(N²) reference evaluation of the closed form, computing the mass sums
// pair by pair.
std::vector<double> TupleExpectedRanksBruteForce(
    const TupleRelation& rel, TiePolicy ties = TiePolicy::kStrictGreater);

// Shard-parallel T-ERank over a prebuilt shard plan: each shard is swept
// locally from its precomputed entry state (prefix mass, per-rule masses),
// so shards run concurrently with no cross-shard reads. Bit-identical to
// a one-thread sweep for every thread count, placement policy, and
// shard count — the plan encodes the exact serial entry state.
std::vector<double> TupleExpectedRanksSharded(
    const TupleRelation& rel, const internal::TupleShardPlan& plan,
    TiePolicy ties, const ParallelismOptions& par,
    KernelReport* report = nullptr);

// T-ERank: exact expected ranks for all tuples in O(N log N), indexed by
// tuple position. Sweeps the prepared relation's shard plan (skipping the
// per-call sort) under `par` and memoizes the (parallelism-independent)
// rank vector in the prepared cache, so repeated queries (any k) cost one
// computation. `report` receives threads/nodes used when the value was
// actually computed (a cache hit leaves it untouched).
std::vector<double> TupleExpectedRanks(
    const PreparedTupleRelation& prepared,
    TiePolicy ties = TiePolicy::kStrictGreater,
    const ParallelismOptions& par = {}, KernelReport* report = nullptr);

// Exact top-k by expected rank. Ties broken by tuple id. Requires k >= 1.
std::vector<RankedTuple> TupleExpectedRankTopK(
    const PreparedTupleRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kStrictGreater,
    const ParallelismOptions& par = {}, KernelReport* report = nullptr);

// T-ERank-Prune, and what QueryEngine::Run executes for expected ranks
// with QueryRequest::prune. Sweeps the shards of the prepared plan
// serially, with the exact arithmetic of TupleExpectedRanksSharded (so
// every visited rank is the same double the unpruned vector holds), and
// tests eq. (9) at each equal-score run boundary: with `flushed` the
// prefix mass of every tuple ranked above the boundary, every later tuple
// has expected rank >= flushed - 1, so the scan stops once the k-th best
// visited rank is strictly below that. The answer equals
// TupleExpectedRankTopK's bit for bit. Requires k >= 1.
PrunedTopKResult TupleExpectedRankTopKPrune(
    const PreparedTupleRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kStrictGreater);

}  // namespace urank

#endif  // URANK_CORE_EXPECTED_RANK_TUPLE_H_
