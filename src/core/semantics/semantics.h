// Shared building blocks for the prior-work ranking semantics
// (paper Section 4.2): per-tuple top-k membership probabilities.
//
// The top-k probability of a tuple is the probability, across all possible
// worlds, that the tuple appears among the k highest-scored appearing
// tuples. In the attribute-level model every tuple appears in every world,
// so this is the cdf of its rank distribution at k-1; in the tuple-level
// model it is the sum of the first k positional probabilities (presence
// required). PT-k and Global-Topk are thin layers over these values.

#ifndef URANK_CORE_SEMANTICS_SEMANTICS_H_
#define URANK_CORE_SEMANTICS_SEMANTICS_H_

#include <vector>

#include "core/ranking.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// result[i] = Pr[t_i is in the top-k], indexed by tuple position.
// Requires k >= 1. The attribute-level form reads the shared
// rank-distribution matrix (so every k shares one O(s N³) DP), the
// tuple-level form streams positional rows over the prepared rank order in
// O(N + M) memory (O(N M²) worst-case time); both memoize the probability
// vector per (k, ties). A cache miss runs the DP with `par` worker slots
// (bit-identical results regardless) and Merge()s what the kernel did into
// `report` when non-null; a cache hit leaves `report` untouched.
std::vector<double> AttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex,
    const ParallelismOptions& par = {}, KernelReport* report = nullptr);
std::vector<double> TupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex,
    const ParallelismOptions& par = {}, KernelReport* report = nullptr);

namespace internal {

// The pruned scan behind TuplePTkPrune and TupleGlobalTopKPrune: sweeps
// the prepared rank order on the serial chunk-grid driver, computes each
// visited tuple's top-k probability with the unpruned kernel's expression
// (min(sum of the first min(k, size) positional entries, 1) — the
// identical double TupleTopKProbabilities stores), and answers the best
// `limit` visited tuples whose probability is >= `threshold`, by
// (probability desc, id asc), statistic = probability. An unvisited tuple
// is outranked by every flushed appearing tuple except at most one own-
// rule sibling, so its top-k probability is at most CDF_Y(k) for Y the
// sweep's flushed Poisson binomial; the scan stops once that bound falls
// below the threshold, or (with `limit` answers held) below the limit-th
// best probability. k, threshold and limit are validated by the callers.
PrunedTopKResult TupleTopKProbabilityPrune(
    const PreparedTupleRelation& prepared, int k, double threshold,
    int limit, TiePolicy ties);

}  // namespace internal
}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_SEMANTICS_H_
