#include "core/semantics/global_topk.h"

#include <queue>

#include "core/engine/prepared_relation.h"
#include "core/ranking.h"
#include "core/semantics/score_sweep.h"
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

GlobalTopKPruneResult TupleGlobalTopKPruned(const TupleRelation& rel, int k,
                                            TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  ScoreOrderSweep sweep(rel, ties);
  std::vector<int> seen_ids;
  std::vector<double> seen_probs;
  // Max-heap over the k best probabilities seen; top() is the k-th best.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      best_k;
  while (sweep.HasNext()) {
    const int i = sweep.Next();
    const double prob = sweep.TopKProbability(k);
    seen_ids.push_back(rel.tuple(i).id);
    seen_probs.push_back(prob);
    if (static_cast<int>(best_k.size()) < k) {
      best_k.push(prob);
    } else if (prob > best_k.top()) {
      best_k.pop();
      best_k.push(prob);
    }
    // No unseen tuple can displace the k-th best seen probability (strict
    // comparison: equal-probability unseen tuples cannot enter either,
    // because BestK breaks ties towards smaller ids and the comparison is
    // on the probability value the bound dominates).
    if (static_cast<int>(best_k.size()) == k &&
        sweep.UnseenTopKBound(k) < best_k.top()) {
      break;
    }
  }
  return {BestK(seen_probs, seen_ids, k), sweep.accessed()};
}

}  // namespace urank
