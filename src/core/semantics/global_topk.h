// Global-Topk semantics (Zhang & Chomicki [48]).
//
// Ranks tuples by their top-k probability and returns the k best. Always
// returns exactly k tuples (when N >= k) but fails containment: the
// probability being ranked against depends on k itself (paper Section 4.2).

#ifndef URANK_CORE_SEMANTICS_GLOBAL_TOPK_H_
#define URANK_CORE_SEMANTICS_GLOBAL_TOPK_H_

#include <vector>

#include "core/ranking.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "model/types.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// Ids of the k tuples with the highest top-k probability, in descending
// probability order (ties by smaller id). The top-k probabilities come
// from the prepared cache (shared with PT-k and any other query at the
// same k), so only the size-k selection runs per call. Requires k >= 1.
std::vector<int> AttrGlobalTopK(const PreparedAttrRelation& prepared, int k,
                                TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<int> TupleGlobalTopK(const PreparedTupleRelation& prepared,
                                 int k,
                                 TiePolicy ties = TiePolicy::kBreakByIndex);

// Early-terminating Global-Topk on the tuple-level model (the Zhang-
// Chomicki style scan), and what QueryEngine::Run executes for
// Global-Topk with QueryRequest::prune: sweep the prepared rank order
// computing exact top-k probabilities, and stop once no unvisited tuple
// can beat the k-th best visited probability (see internal::
// TupleTopKProbabilityPrune). The answer — TupleGlobalTopK's ids,
// statistic = top-k probability — is bit-identical to the unpruned
// selection. Requires k >= 1.
PrunedTopKResult TupleGlobalTopKPrune(
    const PreparedTupleRelation& prepared, int k,
    TiePolicy ties = TiePolicy::kBreakByIndex);

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_GLOBAL_TOPK_H_
