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

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_SEMANTICS_H_
