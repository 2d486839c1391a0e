#include "core/semantics/pt_k.h"

#include "core/engine/prepared_relation.h"
#include "core/ranking.h"
#include "core/semantics/semantics.h"
#include "util/check.h"

namespace urank {
namespace {

std::vector<int> Threshold(const std::vector<double>& probs,
                           const std::vector<int>& ids, double threshold) {
  URANK_DCHECK_MSG(internal::AllFiniteInRange(probs, 0.0, 1.0),
                   "top-k membership probability outside [0,1]");
  // Order by descending probability via the ascending-statistic helper.
  std::vector<double> neg(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) neg[i] = -probs[i];
  std::vector<int> out;
  for (const RankedTuple& rt : TopKByStatistic(ids, neg, -1)) {
    if (-rt.statistic >= threshold) out.push_back(rt.id);
  }
  return out;
}

}  // namespace

std::vector<int> AttrPTk(const PreparedAttrRelation& prepared, int k,
                         double threshold, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  return Threshold(AttrTopKProbabilities(prepared, k, ties), prepared.ids(),
                   threshold);
}

std::vector<int> TuplePTk(const PreparedTupleRelation& prepared, int k,
                          double threshold, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  return Threshold(TupleTopKProbabilities(prepared, k, ties),
                   prepared.ids(), threshold);
}

PrunedTopKResult TuplePTkPrune(const PreparedTupleRelation& prepared, int k,
                               double threshold, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
                  "threshold must be in (0,1]");
  return internal::TupleTopKProbabilityPrune(prepared, k, threshold,
                                             prepared.size(), ties);
}

}  // namespace urank
