// Probabilistic threshold top-k (PT-k) semantics (Hua et al. [23]).
//
// Returns every tuple whose top-k probability meets a user threshold p.
// The answer is a set whose size is usually not k (it violates exact-k and
// only weakly satisfies containment — paper Section 4.2).

#ifndef URANK_CORE_SEMANTICS_PT_K_H_
#define URANK_CORE_SEMANTICS_PT_K_H_

#include <vector>

#include "core/ranking.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "model/types.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// Ids of all tuples with Pr[in top-k] >= threshold, ordered by descending
// top-k probability (ties by smaller id). The top-k probabilities come
// from the prepared cache (shared with Global-Topk and any other query at
// the same k), so only the threshold selection runs per call. Requires
// k >= 1 and threshold in (0, 1].
std::vector<int> AttrPTk(const PreparedAttrRelation& prepared, int k,
                         double threshold,
                         TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<int> TuplePTk(const PreparedTupleRelation& prepared, int k,
                          double threshold,
                          TiePolicy ties = TiePolicy::kBreakByIndex);

// Early-terminating PT-k on the tuple-level model — the access pattern of
// Hua et al. [23], and what QueryEngine::Run executes for PT-k with
// QueryRequest::prune: sweep the prepared rank order, compute each
// visited tuple's exact top-k probability, and stop at the first run
// boundary where no unvisited tuple can reach the threshold (see
// internal::TupleTopKProbabilityPrune for the bound). The answer — ids in
// TuplePTk's order, statistic = top-k probability — is bit-identical to
// the unpruned selection. Requires k >= 1 and threshold in (0, 1].
PrunedTopKResult TuplePTkPrune(const PreparedTupleRelation& prepared, int k,
                               double threshold,
                               TiePolicy ties = TiePolicy::kBreakByIndex);

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_PT_K_H_
