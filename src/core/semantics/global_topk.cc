#include "core/semantics/global_topk.h"

#include "core/engine/prepared_relation.h"
#include "core/ranking.h"
#include "core/semantics/semantics.h"
#include "util/check.h"

namespace urank {
namespace {

std::vector<int> BestK(const std::vector<double>& probs,
                       const std::vector<int>& ids, int k) {
  URANK_DCHECK_MSG(internal::AllFiniteInRange(probs, 0.0, 1.0),
                   "top-k membership probability outside [0,1]");
  std::vector<double> neg(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) neg[i] = -probs[i];
  return IdsOf(TopKByStatistic(ids, neg, k));
}

}  // namespace

std::vector<int> AttrGlobalTopK(const PreparedAttrRelation& prepared, int k,
                                TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return BestK(AttrTopKProbabilities(prepared, k, ties), prepared.ids(), k);
}

std::vector<int> TupleGlobalTopK(const PreparedTupleRelation& prepared,
                                 int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return BestK(TupleTopKProbabilities(prepared, k, ties), prepared.ids(),
               k);
}

PrunedTopKResult TupleGlobalTopKPrune(const PreparedTupleRelation& prepared,
                                      int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return internal::TupleTopKProbabilityPrune(prepared, k, 0.0, k, ties);
}

}  // namespace urank
