#include "core/semantics/u_kranks.h"

#include <algorithm>
#include <span>

#include "core/engine/prepared_relation.h"
#include "core/internal/vector_kernels.h"
#include "core/rank_distribution_tuple.h"
#include "core/semantics/score_sweep.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {
namespace {

// Winner per rank from positional probability rows: rows[i][r] =
// Pr[t_i occupies rank r]. Zero-probability ranks report -1.
URANK_KERNEL
std::vector<int> WinnersPerRank(
    const std::vector<std::vector<double>>& rows,
    const std::vector<int>& ids, int k) {
  const vk::KernelOps& ops = vk::Active();
  std::vector<int> winners(static_cast<size_t>(k), -1);
  std::vector<double> best(static_cast<size_t>(k), 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    URANK_DCHECK_MSG(internal::AllFiniteInRange(row, 0.0, 1.0),
                     "positional probability outside [0,1]");
    const size_t hi = std::min(static_cast<size_t>(k), row.size());
    ops.argmax_merge(row.data(), ids[i], best.data(), winners.data(), hi);
  }
  return winners;
}

// Winner ids round-trip the double-valued stat cache exactly (ints are
// exact in double far beyond the id range).
std::vector<double> ToDouble(const std::vector<int>& v) {
  return std::vector<double>(v.begin(), v.end());
}

std::vector<int> ToInt(const std::vector<double>& v) {
  std::vector<int> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = static_cast<int>(v[i]);
  return out;
}

}  // namespace

std::vector<int> AttrUKRanks(const PreparedAttrRelation& prepared, int k,
                             TiePolicy ties, const ParallelismOptions& par,
                             KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kUKRanksWinners, k, 0.0, ties};
  return ToInt(*prepared.CachedStat(key, [&] {
    const auto rows = prepared.RankDistributions(ties, par, report);
    return ToDouble(WinnersPerRank(*rows, prepared.ids(), k));
  }));
}

std::vector<int> TupleUKRanks(const PreparedTupleRelation& prepared, int k,
                              TiePolicy ties, const ParallelismOptions& par,
                              KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kUKRanksWinners, k, 0.0, ties};
  return ToInt(*prepared.CachedStat(key, [&] {
    // Streamed WinnersPerRank with per-chunk partials: each chunk applies
    // the argmax/min-id rule to its own rows, then the partials fold in
    // chunk index order. The rule is associative and order-independent
    // (strictly-greater wins; equal-and-positive prefers the smaller id),
    // so the answer matches the serial one-chunk sweep bit for bit.
    const int chunks = TupleSweepChunkCount(prepared.relation());
    struct Partial {
      std::vector<int> winners;
      std::vector<double> best;
    };
    std::vector<Partial> partials(
        static_cast<size_t>(chunks),
        Partial{std::vector<int>(static_cast<size_t>(k), -1),
                std::vector<double>(static_cast<size_t>(k), 0.0)});
    const vk::KernelOps& ops = vk::Active();
    const auto entries = prepared.SweepEntries(ties);
    ForEachTuplePositionalDistribution(
        prepared.relation(), prepared.rank_order(), ties, par, report,
        [&](int chunk, int i, std::span<const double> row) {
          URANK_DCHECK_MSG(internal::AllFiniteInRange(row, 0.0, 1.0),
                           "positional probability outside [0,1]");
          Partial& part = partials[static_cast<size_t>(chunk)];
          const int id = prepared.ids()[static_cast<size_t>(i)];
          const size_t hi = std::min(static_cast<size_t>(k), row.size());
          ops.argmax_merge(row.data(), id, part.best.data(),
                           part.winners.data(), hi);
        },
        entries.get());
    std::vector<int> winners(static_cast<size_t>(k), -1);
    std::vector<double> best(static_cast<size_t>(k), 0.0);
    for (const Partial& part : partials) {
      for (size_t r = 0; r < static_cast<size_t>(k); ++r) {
        const double b = part.best[r];
        const int w = part.winners[r];
        if (b > best[r] ||
            (b == best[r] && b > 0.0 && winners[r] >= 0 && w >= 0 &&
             w < winners[r])) {
          best[r] = b;
          winners[r] = w;
        }
      }
    }
    return ToDouble(winners);
  }));
}

URANK_KERNEL
UKRanksPruneResult TupleUKRanksPruned(const TupleRelation& rel, int k,
                                      TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  ScoreOrderSweep sweep(rel, ties);
  const vk::KernelOps& ops = vk::Active();
  std::vector<int> winners(static_cast<size_t>(k), -1);
  std::vector<double> best(static_cast<size_t>(k), 0.0);
  std::vector<double> positional;
  while (sweep.HasNext()) {
    const int i = sweep.Next();
    const int id = rel.tuple(i).id;
    sweep.PositionalProbabilities(k, &positional);
    URANK_DCHECK_MSG(internal::AllFiniteInRange(positional, 0.0, 1.0),
                     "positional probability outside [0,1]");
    ops.argmax_merge(positional.data(), id, best.data(), winners.data(),
                     static_cast<size_t>(k));
    // Stop once every rank's current winner strictly dominates the bound
    // achievable by any unseen tuple.
    bool done = true;
    for (int r = 0; r < k && done; ++r) {
      if (sweep.UnseenRankBound(r) >= best[static_cast<size_t>(r)]) {
        done = false;
      }
    }
    if (done) break;
  }
  return {winners, sweep.accessed()};
}

}  // namespace urank
