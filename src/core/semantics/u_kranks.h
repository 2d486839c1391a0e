// U-kRanks semantics (Soliman et al. [42]; also PRank of Lian & Chen [30]).
//
// The answer's i-th entry is the tuple most likely to be ranked i-th over
// all possible worlds. The same tuple may win several positions, and a
// position may be unreachable (e.g. a tuple-level world that never holds i
// appearing tuples); both behaviours are exactly why this definition fails
// the unique-ranking and exact-k properties (paper Section 4.2).

#ifndef URANK_CORE_SEMANTICS_U_KRANKS_H_
#define URANK_CORE_SEMANTICS_U_KRANKS_H_

#include <vector>

#include "core/ranking.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// answer[r] (0-based rank r < k) is the id of argmax_i Pr[t_i at rank r],
// with ties broken by smaller id, or -1 when no tuple can occupy rank r.
// Requires k >= 1. In the tuple-level model "at rank r" requires the tuple
// to appear in the world (the original definition).
//
// The attribute-level form reads the shared rank-distribution matrix, the
// tuple-level form streams positional rows over the prepared rank order;
// both memoize the winner list per (k, ties). A cache miss runs the DP
// with `par` worker slots and Merge()s what the kernel did into `report`
// when non-null; a cache hit leaves `report` untouched. The tuple-level
// form keeps per-chunk (winner, best) partials and folds them in chunk
// order; the argmax/min-id rule is merge-order independent, so answers
// are identical for every thread count.
std::vector<int> AttrUKRanks(const PreparedAttrRelation& prepared, int k,
                             TiePolicy ties = TiePolicy::kBreakByIndex,
                             const ParallelismOptions& par = {},
                             KernelReport* report = nullptr);
std::vector<int> TupleUKRanks(const PreparedTupleRelation& prepared, int k,
                              TiePolicy ties = TiePolicy::kBreakByIndex,
                              const ParallelismOptions& par = {},
                              KernelReport* report = nullptr);

// Early-terminating U-kRanks on the tuple-level model (in the spirit of
// Soliman et al.'s optimized scan), and what QueryEngine::Run executes
// for U-kRanks with QueryRequest::prune: sweep the prepared rank order on
// the serial chunk-grid driver, fold each visited tuple's positional row
// (the unpruned kernel's row, bit for bit) into the per-rank winners with
// the same argmax/min-id rule, and stop at the first run boundary where
// every rank r < k has best[r] > CDF_Y(r + 1) — an unvisited tuple's
// probability at rank r is at most that, for Y the sweep's flushed
// Poisson binomial. A rank whose best is still 0 keeps the scan alive.
// topk[r] = {winner id (or -1), its probability}; the ids equal
// TupleUKRanks'. Requires k >= 1.
PrunedTopKResult TupleUKRanksPrune(const PreparedTupleRelation& prepared,
                                   int k,
                                   TiePolicy ties = TiePolicy::kBreakByIndex);

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_U_KRANKS_H_
