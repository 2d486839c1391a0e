#include "core/semantics/expected_score.h"

#include "core/engine/prepared_relation.h"
#include "util/check.h"

namespace urank {
namespace {

std::vector<RankedTuple> NegatedTopK(const std::vector<double>& scores,
                                     const std::vector<int>& ids, int k) {
  std::vector<double> neg(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) neg[i] = -scores[i];
  return TopKByStatistic(ids, neg, k);
}

// p(t_i)·v_i per tuple: an absent tuple contributes score 0.
std::vector<double> ScoresTimesProbabilities(const TupleRelation& rel) {
  std::vector<double> scores(static_cast<size_t>(rel.size()), 0.0);
  for (int i = 0; i < rel.size(); ++i) {
    URANK_DCHECK_PROB(rel.tuple(i).prob);
    scores[static_cast<size_t>(i)] = rel.tuple(i).prob * rel.tuple(i).score;
  }
  return scores;
}

}  // namespace

std::vector<double> AttrExpectedScores(const PreparedAttrRelation& prepared) {
  return prepared.expected_scores();
}

std::vector<double> TupleExpectedScores(
    const PreparedTupleRelation& prepared) {
  const StatKey key{StatKey::Kind::kExpectedScore, 0, 0.0,
                    TiePolicy::kBreakByIndex};
  return *prepared.CachedStat(
      key, [&] { return ScoresTimesProbabilities(prepared.relation()); });
}

std::vector<RankedTuple> AttrExpectedScoreTopK(
    const PreparedAttrRelation& prepared, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return NegatedTopK(prepared.expected_scores(), prepared.ids(), k);
}

std::vector<RankedTuple> TupleExpectedScoreTopK(
    const PreparedTupleRelation& prepared, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return NegatedTopK(TupleExpectedScores(prepared), prepared.ids(), k);
}

}  // namespace urank
