#include "core/expected_rank_tuple.h"

#include <queue>

#include "core/access.h"
#include "core/engine/prepared_relation.h"
#include "core/internal/shard_plan.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {
namespace {

// Evaluates eq. (8) from the aggregate masses:
//   p      — existence probability of t_i,
//   above  — probability mass of tuples ranked above t_i (any rule),
//   same_above — above-mass restricted to t_i's own rule,
//   same_other — t_i's rule mass excluding t_i itself,
//   ew     — E[|W|].
double ExpectedRankFromMasses(double p, double above, double same_above,
                              double same_other, double ew) {
  return p * (above - same_above) + same_other +
         (1.0 - p) * (ew - p - same_other);
}

// True when t_j is ranked above t_i under the tie policy.
bool IsAbove(const TLTuple& tj, int j, const TLTuple& ti, int i,
             TiePolicy ties) {
  if (tj.score != ti.score) return tj.score > ti.score;
  return ties == TiePolicy::kBreakByIndex && j < i;
}

}  // namespace

std::vector<double> TupleExpectedRanksBruteForce(const TupleRelation& rel,
                                                 TiePolicy ties) {
  const int n = rel.size();
  const double ew = rel.ExpectedWorldSize();
  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const TLTuple& ti = rel.tuple(i);
    double above = 0.0, same_above = 0.0, same_other = 0.0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      const TLTuple& tj = rel.tuple(j);
      const bool same_rule = rel.rule_of(j) == rel.rule_of(i);
      if (IsAbove(tj, j, ti, i, ties)) {
        above += tj.prob;
        if (same_rule) same_above += tj.prob;
      }
      if (same_rule) same_other += tj.prob;
    }
    ranks[static_cast<size_t>(i)] =
        ExpectedRankFromMasses(ti.prob, above, same_above, same_other, ew);
  }
  return ranks;
}

namespace {

// Shard-local T-ERank pass: sweeps one shard exactly as the serial kernel
// would sweep positions [shard.begin, shard.end) — the entry state in the
// plan is the serial state at shard.begin bit for bit, and every read
// below reproduces the serial kernel's reads (prefix_above from the global
// prefix values, rule_above continued by the same additions in the same
// order). Writes to `ranks` are disjoint across shards.
URANK_KERNEL
void ExpectedRanksShardSweep(const TupleRelation& rel,
                             const internal::TupleShard& shard, TiePolicy ties,
                             double ew, std::vector<double>* ranks) {
  std::vector<double> rule_above = shard.entry_rule_mass;
  const size_t len = shard.order.size();
  size_t pos = 0;
  while (pos < len) {
    size_t end = pos + 1;
    if (ties == TiePolicy::kStrictGreater) {
      // Shard boundaries are run-aligned, so a run never extends past
      // `len` (or backward past 0): run detection matches the global sweep.
      while (end < len && rel.tuple(shard.order[end]).score ==
                              rel.tuple(shard.order[pos]).score) {
        ++end;
      }
    }
    const double prefix_above =
        pos == 0 ? shard.entry_prefix : shard.pref[pos - 1];
    for (size_t idx = pos; idx < end; ++idx) {
      const int i = shard.order[idx];
      const TLTuple& ti = rel.tuple(i);
      const int r = rel.rule_of(i);
      const double same_other = rel.rule_prob_sum(r) - ti.prob;
      // Scatter through the rank-order permutation with a data-dependent
      // rule-id gather; the contiguous mass lives in the plan's prefix
      // values, computed by the prefix-sum kernel at plan-build time.
      // urank-lint: allow(kernel-vectorize)
      (*ranks)[static_cast<size_t>(i)] = ExpectedRankFromMasses(
          ti.prob, prefix_above, rule_above[static_cast<size_t>(r)],
          same_other, ew);
    }
    for (size_t idx = pos; idx < end; ++idx) {
      const int i = shard.order[idx];
      // Scatter keyed by rule id — data-dependent indices, not a
      // contiguous sweep a vector kernel could express.
      // urank-lint: allow(kernel-vectorize)
      rule_above[static_cast<size_t>(rel.rule_of(i))] += rel.tuple(i).prob;
    }
    pos = end;
  }
}

}  // namespace

std::vector<double> TupleExpectedRanksSharded(
    const TupleRelation& rel, const internal::TupleShardPlan& plan,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report) {
  const int n = rel.size();
  const double ew = rel.ExpectedWorldSize();
  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  const int num_chunks = static_cast<int>(plan.shards.size());
  const int workers = PlannedWorkers(par, static_cast<long long>(n));
  const ForRunInfo info = ParallelForPlaced(
      num_chunks, workers, par.placement, [&](int chunk, int /*slot*/) {
        ExpectedRanksShardSweep(rel, plan.shards[static_cast<size_t>(chunk)],
                                ties, ew, &ranks);
      });
  if (report != nullptr) {
    KernelReport kr;
    kr.threads_used = info.participants;
    kr.nodes_used = info.nodes_used;
    report->Merge(kr);
  }
  URANK_DCHECK_MSG(
      internal::AllFiniteInRange(ranks, 0.0, static_cast<double>(n),
                                 1e-9 * static_cast<double>(n > 0 ? n : 1)),
      "expected rank outside [0, N]");
  return ranks;
}

std::vector<double> TupleExpectedRanks(const PreparedTupleRelation& prepared,
                                       TiePolicy ties,
                                       const ParallelismOptions& par,
                                       KernelReport* report) {
  const StatKey key{StatKey::Kind::kExpectedRank, 0, 0.0, ties};
  return *prepared.CachedStat(key, [&] {
    return TupleExpectedRanksSharded(prepared.relation(),
                                     prepared.shard_plan(), ties, par, report);
  });
}

std::vector<RankedTuple> TupleExpectedRankTopK(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return TopKByStatistic(prepared.ids(),
                         TupleExpectedRanks(prepared, ties, par, report), k);
}

TuplePruneResult TupleExpectedRankTopKPrune(const TupleRelation& rel, int k,
                                            TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  SortedTupleStream stream(rel);
  const double ew = stream.expected_world_size();

  std::vector<int> seen_ids;
  std::vector<double> seen_ranks;
  // Max-heap over the k smallest exact ranks seen so far.
  std::priority_queue<double> worst_of_best;

  std::vector<double> rule_above(static_cast<size_t>(rel.num_rules()), 0.0);
  double prefix_above = 0.0;  // flushed mass: ranked above the current run
  // Pending tuples of the current equal-score run (strict policy only).
  std::vector<int> pending;
  double pending_score = 0.0;

  auto flush_pending = [&]() {
    for (int i : pending) {
      prefix_above += rel.tuple(i).prob;
      rule_above[static_cast<size_t>(rel.rule_of(i))] += rel.tuple(i).prob;
    }
    pending.clear();
  };

  while (stream.HasNext()) {
    const int i = stream.Next();
    const TLTuple& ti = rel.tuple(i);
    if (ties == TiePolicy::kStrictGreater) {
      if (!pending.empty() && ti.score < pending_score) flush_pending();
      pending_score = ti.score;
    }
    const int r = rel.rule_of(i);
    const double same_other = rel.rule_prob_sum(r) - ti.prob;
    const double rank = ExpectedRankFromMasses(
        ti.prob, prefix_above, rule_above[static_cast<size_t>(r)], same_other,
        ew);
    seen_ids.push_back(ti.id);
    seen_ranks.push_back(rank);
    if (static_cast<int>(worst_of_best.size()) < k) {
      worst_of_best.push(rank);
    } else if (rank < worst_of_best.top()) {
      worst_of_best.pop();
      worst_of_best.push(rank);
    }
    if (ties == TiePolicy::kStrictGreater) {
      pending.push_back(i);
    } else {
      prefix_above += ti.prob;
      rule_above[static_cast<size_t>(r)] += ti.prob;
    }

    // Eq. (9), tie-safe form: every unseen tuple has expected rank at least
    // (flushed mass) - 1. Under the strict policy the flushed mass counts
    // tuples scoring strictly above the current run — sound even when the
    // next unseen tuple ties the current score; under kBreakByIndex every
    // seen tuple ranks above every unseen one, so the flushed mass is the
    // full seen mass.
    const double unseen_lower_bound = prefix_above - 1.0;
    if (static_cast<int>(worst_of_best.size()) == k &&
        worst_of_best.top() <= unseen_lower_bound) {
      break;
    }
  }

  return {TopKByStatistic(seen_ids, seen_ranks, k), stream.accessed()};
}

}  // namespace urank
