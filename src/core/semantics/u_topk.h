// U-Topk semantics (Soliman et al. [42]): the most likely top-k set.
//
// Conceptually, extract the ranked top-k list of every possible world and
// report the list with the highest total probability. The paper
// shows it can be completely disjoint between k and k+1 (its containment
// counterexamples, Figs. 2 and 4) and can hold fewer than k tuples when
// small worlds dominate.
//
// Algorithms:
//   * TupleUTopK — for relations whose rules are all singletons
//     (independent tuples) an exact O(N·k) dynamic program over the
//     score-sorted order; with multi-tuple rules it dispatches to
//     TupleUTopKWithRules, the exact cutoff-sweep algorithm below.
//   * AttrUTopK — possible-worlds enumeration (score uncertainty makes the
//     answer ordering world-dependent, so no cutoff factorization exists).

#ifndef URANK_CORE_SEMANTICS_U_TOPK_H_
#define URANK_CORE_SEMANTICS_U_TOPK_H_

#include <vector>

#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// The most likely top-k answer. `ids` is the rank-ordered top-k list (the
// original U-Topk definition is over ranked answers: (t2,t3) and (t3,t2)
// are distinct); `probability` is its support across all worlds.
struct UTopKAnswer {
  std::vector<int> ids;
  double probability = 0.0;

  friend bool operator==(const UTopKAnswer&, const UTopKAnswer&) = default;
};

// Exact DP for independent tuples; aborts if any rule has more than one
// member. Exposed separately for testing and benchmarking.
UTopKAnswer TupleUTopKIndependent(const TupleRelation& rel, int k);

// Exact polynomial algorithm for arbitrary exclusion rules. The key
// observation making this tractable: once the cutoff (the rank-order
// position of the answer's last member) is fixed, the probability of a
// candidate answer factorizes per rule —
//
//   Pr[answer = L] = Π_{t in L} p(t) ·
//                    Π_{rules with prefix members but none chosen}
//                        (1 − prefix mass of the rule)
//
// (a rule's prefix members must all be absent unless one is chosen; its
// post-cutoff members are unconstrained). Sweeping the cutoff while
// maintaining, per rule, its best member and prefix mass gives the global
// optimum in O(N (k + log N)) after sorting. Work is done in log space so
// thousands of factors cannot underflow. Requires k >= 1.
UTopKAnswer TupleUTopKWithRules(const TupleRelation& rel, int k);

// The most likely top-k answer over prepared state. Requires k >= 1. The
// tuple-level form runs TupleUTopKIndependent's DP when every rule is a
// singleton and TupleUTopKWithRules otherwise, both over the prepared rank
// order (no per-call sort; the DP itself is k-specific, so nothing is
// memoized). The attribute-level form is possible-worlds enumeration and
// requires an enumerable world count (QueryEngine::Run rejects larger
// relations with kWorldCountNotEnumerable before dispatching here). Ties
// between equal-probability answers are broken towards the answer found
// first in score order (DP) / the lexicographically smallest id list
// (enumeration).
UTopKAnswer TupleUTopK(const PreparedTupleRelation& prepared, int k);
UTopKAnswer AttrUTopK(const PreparedAttrRelation& prepared, int k);

}  // namespace urank

#endif  // URANK_CORE_SEMANTICS_U_TOPK_H_
