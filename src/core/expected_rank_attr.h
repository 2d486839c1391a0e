// Expected ranks in the attribute-level uncertainty model (paper Section 5).
//
// The expected rank of tuple t_i is r(t_i) = E[R(t_i)] = Σ_{j≠i}
// Pr[X_j > X_i] (eq. 3). Three computations are provided:
//   * AttrExpectedRanksBruteForce — the O(N²) pairwise sum (the paper's BFS
//     baseline);
//   * AttrExpectedRanks — the A-ERank algorithm, O(N log N) for constant
//     pdf size, via the value-universe decomposition of eq. (4);
//   * AttrExpectedRankTopKPrune — the A-ERank-Prune algorithm (Section
//     5.2), which walks the prepared expected-score order and stops once
//     the Markov-bound pruning condition of eqs. (5)–(6) guarantees the
//     top-k lies within the scanned prefix. Its answer is the paper's
//     surrogate: the exact top-k of the curtailed prefix, which
//     approximates (usually equals) the true top-k. Being approximate, it
//     is an explicit call, never what QueryRequest::prune runs.

#ifndef URANK_CORE_EXPECTED_RANK_ATTR_H_
#define URANK_CORE_EXPECTED_RANK_ATTR_H_

#include <vector>

#include "core/ranking.h"
#include "model/attr_model.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

class PreparedAttrRelation;  // core/engine/prepared_relation.h

// O(N² s) reference: evaluates eq. (3) pair by pair. `ties` selects the
// rank definition (see TiePolicy); the paper's Definition 6 is
// kStrictGreater.
std::vector<double> AttrExpectedRanksBruteForce(
    const AttrRelation& rel, TiePolicy ties = TiePolicy::kStrictGreater);

// A-ERank: exact expected ranks for all tuples in O(sN log(sN)) using the
// prepared sorted value universe (q(v) suffix masses, eq. 4), indexed by
// tuple position. Sweeps the prepared relation's shard plan (contiguous
// tuple ranges with precomputed per-entry tie masses) under `par`, so
// shards run concurrently with no cross-shard state, and memoizes the full
// rank vector in the prepared cache. Results are bit-identical for every
// thread count, placement policy, and topology; `report` receives
// threads/nodes used when the value was actually computed (a cache hit
// leaves it untouched).
std::vector<double> AttrExpectedRanks(
    const PreparedAttrRelation& prepared,
    TiePolicy ties = TiePolicy::kStrictGreater,
    const ParallelismOptions& par = {}, KernelReport* report = nullptr);

// Exact top-k by expected rank (A-ERank + a size-k selection). Ties broken
// by tuple id. Requires k >= 1.
std::vector<RankedTuple> AttrExpectedRankTopK(
    const PreparedAttrRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kStrictGreater,
    const ParallelismOptions& par = {}, KernelReport* report = nullptr);

// A-ERank-Prune. Walks prepared.escore_order() (expected score desc,
// index asc) and the prepared sorted pdfs; tuples_scanned is the number
// of tuples accessed before the pruning condition fired, and topk the
// curtailed-prefix surrogate. Requires every score value to be strictly
// positive (the Markov tail bounds of eqs. (5)–(6) need non-negative
// scores bounded away from zero) and k >= 1. Uses the paper's rank
// definition (TiePolicy::kStrictGreater).
//
// `clamp_tail_bounds` selects the tightened variant (ablation A2): each
// Markov term E[X_n]/v is a probability bound, so clamping it to
// min(1, E[X_n]/v) keeps both eqs. (5) and (6) sound while pruning
// earlier. false reproduces the paper's bounds verbatim.
PrunedTopKResult AttrExpectedRankTopKPrune(
    const PreparedAttrRelation& prepared, int k,
    bool clamp_tail_bounds = false);

}  // namespace urank

#endif  // URANK_CORE_EXPECTED_RANK_ATTR_H_
