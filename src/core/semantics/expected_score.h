// Expected-score semantics (paper Section 4.2, "Expected score").
//
// Ranks tuples by the expectation of their score contribution: E[X_i] in
// the attribute-level model, p(t_i)·v_i in the tuple-level model (an absent
// tuple contributes score 0). Satisfies exact-k, containment, unique
// ranking and stability, but is sensitive to the score magnitudes and so
// fails value invariance.

#ifndef URANK_CORE_SEMANTICS_EXPECTED_SCORE_H_
#define URANK_CORE_SEMANTICS_EXPECTED_SCORE_H_

#include <vector>

#include "core/ranking.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// Per-tuple expected scores, indexed by tuple position. The
// attribute-level expected scores are built eagerly at preparation time;
// the tuple-level ones are memoized on first use.
std::vector<double> AttrExpectedScores(const PreparedAttrRelation& prepared);
std::vector<double> TupleExpectedScores(
    const PreparedTupleRelation& prepared);

// Top-k by descending expected score (ties by smaller id). The reported
// statistic is the negated expected score, so lower is better as
// everywhere in the library. Requires k >= 1.
std::vector<RankedTuple> AttrExpectedScoreTopK(
    const PreparedAttrRelation& prepared, int k);
std::vector<RankedTuple> TupleExpectedScoreTopK(
    const PreparedTupleRelation& prepared, int k);

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_EXPECTED_SCORE_H_
