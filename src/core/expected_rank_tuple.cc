#include "core/expected_rank_tuple.h"

#include "core/engine/prepared_relation.h"
#include "core/internal/shard_plan.h"
#include "core/internal/tuple_sweep.h"
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
// order). visit(i, rank) receives each tuple's expected rank; after every
// equal-score run is flushed, stop(next_pos, flushed) is asked whether to
// end the pass there, with next_pos the global rank-order position of the
// next tuple and `flushed` the prefix mass of every tuple before it.
// Returns true when stop ended the pass.
template <typename Visit, typename Stop>
URANK_KERNEL bool ExpectedRanksShardSweep(const TupleRelation& rel,
                                          const internal::TupleShard& shard,
                                          TiePolicy ties, double ew,
                                          Visit&& visit, Stop&& stop) {
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
      visit(i, ExpectedRankFromMasses(ti.prob, prefix_above,
                                      rule_above[static_cast<size_t>(r)],
                                      same_other, ew));
    }
    for (size_t idx = pos; idx < end; ++idx) {
      const int i = shard.order[idx];
      // Scatter keyed by rule id — data-dependent indices, not a
      // contiguous sweep a vector kernel could express.
      // urank-lint: allow(kernel-vectorize)
      rule_above[static_cast<size_t>(rel.rule_of(i))] += rel.tuple(i).prob;
    }
    pos = end;
    if (stop(shard.begin + static_cast<long long>(pos), shard.pref[pos - 1])) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<double> TupleExpectedRanksSharded(
    const TupleRelation& rel, const internal::TupleShardPlan& plan,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report) {
  const int n = rel.size();
  const double ew = rel.ExpectedWorldSize();
  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  const int num_chunks = static_cast<int>(plan.shards.size());
  const int workers =
      PlannedWorkers(par, num_chunks, static_cast<long long>(n));
  const ForRunInfo info = ParallelForPlaced(
      num_chunks, workers, par.placement, [&](int chunk, int /*slot*/) {
        ExpectedRanksShardSweep(
            rel, plan.shards[static_cast<size_t>(chunk)], ties, ew,
            [&ranks](int i, double rank) {
              // Scatter through the rank-order permutation; the
              // contiguous mass lives in the plan's prefix values,
              // computed by the prefix-sum kernel at plan-build time.
              // urank-lint: allow(kernel-vectorize)
              ranks[static_cast<size_t>(i)] = rank;
            },
            [](long long, double) { return false; });
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

PrunedTopKResult TupleExpectedRankTopKPrune(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const TupleRelation& rel = prepared.relation();
  const long long n = rel.size();
  const double ew = rel.ExpectedWorldSize();
  PrunedTopKResult result;
  result.prune_stop_position = n;
  internal::KBestHeap heap(k, rel.size());
  for (const internal::TupleShard& shard : prepared.shard_plan().shards) {
    const bool stopped = ExpectedRanksShardSweep(
        rel, shard, ties, ew,
        [&](int i, double rank) {
          ++result.tuples_scanned;
          heap.Offer(rank, rel.tuple(i).id);
        },
        [&](long long next_pos, double flushed) {
          // Eq. (9): every tuple after next_pos has expected rank at least
          // flushed - 1 (flushed = the mass of every tuple ranked above it).
          if (next_pos >= n || !heap.full() ||
              !(heap.kth() < flushed - 1.0 - internal::kPruneStopSlack)) {
            return false;
          }
          result.prune_stop_position = next_pos;
          return true;
        });
    if (stopped) break;
  }
  result.topk = heap.Ranked();
  return result;
}

}  // namespace urank
