#include "core/semantics/u_topk.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <utility>

#include "core/engine/prepared_relation.h"
#include "model/possible_worlds.h"
#include "util/check.h"

namespace urank {
namespace {

UTopKAnswer BestOfSetMap(const std::map<std::vector<int>, double>& sets) {
  UTopKAnswer best;
  for (const auto& [ids, prob] : sets) {
    if (prob > best.probability) {
      best.ids = ids;
      best.probability = prob;
    }
  }
  return best;
}

// Positions sorted by (score desc, index asc) — the shared DP sweep order.
std::vector<int> UTopKRankOrder(const TupleRelation& rel) {
  std::vector<int> order(static_cast<size_t>(rel.size()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = rel.tuple(a).score;
    const double sb = rel.tuple(b).score;
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

bool AllSingletonRules(const TupleRelation& rel) {
  for (int r = 0; r < rel.num_rules(); ++r) {
    if (rel.rule(r).size() > 1) return false;
  }
  return true;
}

UTopKAnswer TupleUTopKIndependentInOrder(const TupleRelation& rel,
                                         const std::vector<int>& order,
                                         int k) {
  const int n = rel.size();

  // g[i][c]: max probability of fixing the presence of the i highest-scored
  // tuples with exactly c of them present (present tuples contribute p,
  // absent ones 1-p). choice[i][c] records whether the i-th tuple is
  // present on the optimal path.
  const int cols = k + 1;
  std::vector<std::vector<double>> g(
      static_cast<size_t>(n) + 1, std::vector<double>(static_cast<size_t>(cols), 0.0));
  std::vector<std::vector<uint8_t>> choice(
      static_cast<size_t>(n) + 1,
      std::vector<uint8_t>(static_cast<size_t>(cols), 0));
  g[0][0] = 1.0;
  for (int i = 1; i <= n; ++i) {
    const double p = rel.tuple(order[static_cast<size_t>(i - 1)]).prob;
    URANK_DCHECK_PROB(p);
    for (int c = 0; c <= std::min(i, k); ++c) {
      const double skip = g[static_cast<size_t>(i - 1)][static_cast<size_t>(c)] * (1.0 - p);
      const double take =
          c > 0 ? g[static_cast<size_t>(i - 1)][static_cast<size_t>(c - 1)] * p : 0.0;
      if (take > skip) {
        g[static_cast<size_t>(i)][static_cast<size_t>(c)] = take;
        choice[static_cast<size_t>(i)][static_cast<size_t>(c)] = 1;
      } else {
        g[static_cast<size_t>(i)][static_cast<size_t>(c)] = skip;
      }
    }
  }

  // Candidate A: the k-th (lowest) member of the set sits at sorted
  // position i; deeper tuples are unconstrained. Candidate B: a world with
  // fewer than k tuples in total, whose entire content is the answer set.
  double best = 0.0;
  int best_i = -1;  // position of the k-th member; -1 encodes candidate B
  int best_c = 0;   // candidate B's set size
  for (int i = 1; i <= n; ++i) {
    const double p = rel.tuple(order[static_cast<size_t>(i - 1)]).prob;
    const double val =
        g[static_cast<size_t>(i - 1)][static_cast<size_t>(k - 1)] * p;
    if (val > best) {
      best = val;
      best_i = i;
    }
  }
  for (int c = 0; c < k; ++c) {
    const double val = g[static_cast<size_t>(n)][static_cast<size_t>(c)];
    if (val > best) {
      best = val;
      best_i = -1;
      best_c = c;
    }
  }

  UTopKAnswer answer;
  answer.probability = best;
  if (best <= 0.0) return answer;  // defensive; unreachable for valid input
  int i, c;
  if (best_i >= 0) {
    answer.ids.push_back(rel.tuple(order[static_cast<size_t>(best_i - 1)]).id);
    i = best_i - 1;
    c = k - 1;
  } else {
    i = n;
    c = best_c;
  }
  while (i > 0) {
    if (choice[static_cast<size_t>(i)][static_cast<size_t>(c)] != 0) {
      answer.ids.push_back(rel.tuple(order[static_cast<size_t>(i - 1)]).id);
      --c;
    }
    --i;
  }
  // The backward walk produced ascending score order; report rank order.
  std::reverse(answer.ids.begin(), answer.ids.end());
  URANK_DCHECK_PROB(answer.probability);
  return answer;
}

// Shared sweep state for TupleUTopKWithRules: per-rule prefix mass and
// best (maximum-probability) prefix member, updated as the cutoff
// advances through the rank order.
struct RuleSweepState {
  explicit RuleSweepState(int num_rules)
      : mass(static_cast<size_t>(num_rules), 0.0),
        best_prob(static_cast<size_t>(num_rules), 0.0),
        best_pos(static_cast<size_t>(num_rules), -1),
        in_prefix(static_cast<size_t>(num_rules), 0) {}

  std::vector<double> mass;
  std::vector<double> best_prob;
  std::vector<int> best_pos;  // rank-order position of the best member
  // Byte-per-rule flags: std::vector<bool>'s proxy bit-packing costs a
  // mask-and-shift on the hot membership test and defeats vectorization.
  std::vector<std::uint8_t> in_prefix;

  // Adds the tuple at rank-order position `pos` (probability p, rule r).
  void Add(int r, int pos, double p) {
    const size_t ri = static_cast<size_t>(r);
    mass[ri] += p;
    in_prefix[ri] = 1;
    if (p > best_prob[ri]) {
      best_prob[ri] = p;
      best_pos[ri] = pos;
    }
  }

  bool saturated(int r) const {
    return 1.0 - mass[static_cast<size_t>(r)] <= 0.0;
  }
};

UTopKAnswer TupleUTopKWithRulesInOrder(const TupleRelation& rel,
                                       const std::vector<int>& order,
                                       int k) {
  const int n = rel.size();
  UTopKAnswer answer;
  if (n == 0) {
    answer.probability = 1.0;  // the empty answer, with certainty
    return answer;
  }

  // Sweep pass: for each cutoff c (the rank-order position of the
  // answer's lowest member), the best achievable log-probability is
  //   B + Σ_{forced rules ≠ ρ} log(best_p)
  //     + (log p(t_c) − [ρ not saturated]·log(1−m_ρ))
  //     + (sum of the `extra` largest w over non-saturated rules ≠ ρ),
  // where B = Σ_{non-saturated prefix rules} log(1−m_r),
  //       w_r = log(best_p_r) − log(1−m_r),
  //       forced = saturated prefix rules (probability-0 answers unless a
  //       member is chosen), ρ = t_c's rule, and
  //       extra = k − 1 − #(forced ≠ ρ).
  RuleSweepState state(rel.num_rules());
  double base = 0.0;         // B
  double forced_sum = 0.0;   // Σ_{saturated} log(best_p)
  int forced_count = 0;
  std::vector<double> rule_w(static_cast<size_t>(rel.num_rules()), 0.0);
  // Non-saturated prefix rules, ordered by w descending.
  std::multiset<std::pair<double, int>, std::greater<>> by_w;

  double best_log = -std::numeric_limits<double>::infinity();
  int best_cutoff = -1;   // rank-order position; -1 = short answer
  int best_short_extra = 0;

  auto top_extra_sum = [&](int extra, int exclude_rule, bool* feasible) {
    double sum = 0.0;
    int taken = 0;
    for (auto it = by_w.begin(); it != by_w.end() && taken < extra; ++it) {
      if (it->second == exclude_rule) continue;
      sum += it->first;
      ++taken;
    }
    *feasible = taken == extra;
    return sum;
  };

  for (int c = 0; c < n; ++c) {
    const int i = order[static_cast<size_t>(c)];
    const TLTuple& t = rel.tuple(i);
    URANK_DCHECK_PROB(t.prob);
    const int rho = rel.rule_of(i);
    const size_t ri = static_cast<size_t>(rho);
    // Move t into the prefix, updating ρ's classification and aggregates.
    const bool was_in_prefix = state.in_prefix[ri];
    const bool was_saturated = was_in_prefix && state.saturated(rho);
    if (was_in_prefix && !was_saturated) {
      base -= std::log(1.0 - state.mass[ri]);
      by_w.erase(by_w.find({rule_w[ri], rho}));
    }
    if (was_saturated) {
      forced_sum -= std::log(state.best_prob[ri]);
      --forced_count;
    }
    state.Add(rho, c, t.prob);
    if (state.saturated(rho)) {
      forced_sum += std::log(state.best_prob[ri]);
      ++forced_count;
    } else {
      base += std::log(1.0 - state.mass[ri]);
      rule_w[ri] =
          std::log(state.best_prob[ri]) - std::log(1.0 - state.mass[ri]);
      by_w.insert({rule_w[ri], rho});
    }

    // Candidate: t_c is the k-th (lowest) member.
    const bool rho_saturated = state.saturated(rho);
    const int forced_other = forced_count - (rho_saturated ? 1 : 0);
    const int extra = k - 1 - forced_other;
    if (extra < 0) continue;
    bool feasible = false;
    const double extra_sum = top_extra_sum(extra, rho, &feasible);
    if (!feasible) continue;
    double log_prob = base + forced_sum + extra_sum + std::log(t.prob);
    if (rho_saturated) {
      // forced_sum counted ρ's best member, but ρ's member must be t_c.
      log_prob -= std::log(state.best_prob[ri]);
    } else {
      // base counted ρ's (1−m) factor; ρ contributes t_c instead.
      log_prob -= std::log(1.0 - state.mass[ri]);
    }
    if (log_prob > best_log) {
      best_log = log_prob;
      best_cutoff = c;
    }
  }

  // Short-answer candidate: the whole relation is the prefix and the
  // answer is every appearing tuple (fewer than k of them). Take the
  // forced rules plus every positive-w rule, capped at k−1 members.
  if (forced_count <= k - 1) {
    double log_prob = base + forced_sum;
    int extra = 0;
    for (auto it = by_w.begin();
         it != by_w.end() && forced_count + extra < k - 1 && it->first > 0.0;
         ++it) {
      log_prob += it->first;
      ++extra;
    }
    if (log_prob > best_log) {
      best_log = log_prob;
      best_cutoff = -1;
      best_short_extra = extra;
    }
  }
  URANK_CHECK_MSG(best_cutoff >= -1 && best_log > -1e300,
                  "U-Topk sweep found no candidate");

  // Reconstruction pass: rebuild the prefix state up to the winning
  // cutoff and materialize the chosen members.
  RuleSweepState rebuild(rel.num_rules());
  const int limit = best_cutoff >= 0 ? best_cutoff : n - 1;
  for (int c = 0; c <= limit; ++c) {
    const int i = order[static_cast<size_t>(c)];
    rebuild.Add(rel.rule_of(i), c, rel.tuple(i).prob);
  }
  std::vector<int> chosen_positions;
  std::vector<std::uint8_t> rule_used(static_cast<size_t>(rel.num_rules()),
                                      0);
  if (best_cutoff >= 0) {
    const int rho = rel.rule_of(order[static_cast<size_t>(best_cutoff)]);
    chosen_positions.push_back(best_cutoff);
    rule_used[static_cast<size_t>(rho)] = 1;
  }
  // Forced (saturated) rules.
  std::vector<std::pair<double, int>> candidates;  // (w, rule)
  for (int r = 0; r < rel.num_rules(); ++r) {
    if (!rebuild.in_prefix[static_cast<size_t>(r)] ||
        rule_used[static_cast<size_t>(r)]) {
      continue;
    }
    if (rebuild.saturated(r)) {
      chosen_positions.push_back(rebuild.best_pos[static_cast<size_t>(r)]);
      rule_used[static_cast<size_t>(r)] = 1;
    } else {
      candidates.emplace_back(
          std::log(rebuild.best_prob[static_cast<size_t>(r)]) -
              std::log(1.0 - rebuild.mass[static_cast<size_t>(r)]),
          r);
    }
  }
  std::sort(candidates.begin(), candidates.end(), std::greater<>());
  const int want = best_cutoff >= 0
                       ? k - static_cast<int>(chosen_positions.size())
                       : best_short_extra;
  for (int e = 0; e < want; ++e) {
    const int r = candidates[static_cast<size_t>(e)].second;
    chosen_positions.push_back(rebuild.best_pos[static_cast<size_t>(r)]);
    rule_used[static_cast<size_t>(r)] = 1;
  }
  std::sort(chosen_positions.begin(), chosen_positions.end());

  // Exact probability in linear space.
  double probability = 1.0;
  for (int pos : chosen_positions) {
    probability *= rel.tuple(order[static_cast<size_t>(pos)]).prob;
    answer.ids.push_back(rel.tuple(order[static_cast<size_t>(pos)]).id);
  }
  for (int r = 0; r < rel.num_rules(); ++r) {
    if (rebuild.in_prefix[static_cast<size_t>(r)] &&
        !rule_used[static_cast<size_t>(r)]) {
      probability *= 1.0 - rebuild.mass[static_cast<size_t>(r)];
    }
  }
  answer.probability = probability;
  URANK_DCHECK_PROB(answer.probability);
  return answer;
}

}  // namespace

UTopKAnswer TupleUTopKIndependent(const TupleRelation& rel, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  for (int r = 0; r < rel.num_rules(); ++r) {
    URANK_CHECK_MSG(rel.rule(r).size() == 1,
                    "TupleUTopKIndependent requires singleton rules");
  }
  return TupleUTopKIndependentInOrder(rel, UTopKRankOrder(rel), k);
}

UTopKAnswer TupleUTopKWithRules(const TupleRelation& rel, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return TupleUTopKWithRulesInOrder(rel, UTopKRankOrder(rel), k);
}

UTopKAnswer TupleUTopK(const PreparedTupleRelation& prepared, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const TupleRelation& rel = prepared.relation();
  if (AllSingletonRules(rel)) {
    return TupleUTopKIndependentInOrder(rel, prepared.rank_order(), k);
  }
  return TupleUTopKWithRulesInOrder(rel, prepared.rank_order(), k);
}

UTopKAnswer AttrUTopK(const PreparedAttrRelation& prepared, int k) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return BestOfSetMap(AttrTopKSetProbabilities(prepared.relation(), k));
}

}  // namespace urank
