#include "core/semantics/u_kranks.h"

#include <algorithm>
#include <span>

#include "core/engine/prepared_relation.h"
#include "core/internal/kernel_arena.h"
#include "core/internal/tuple_sweep.h"
#include "core/internal/vector_kernels.h"
#include "core/rank_distribution_tuple.h"
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

URANK_KERNEL PrunedTopKResult TupleUKRanksPrune(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const TupleRelation& rel = prepared.relation();
  const size_t kk = static_cast<size_t>(k);
  PrunedTopKResult result;
  result.prune_stop_position = rel.size();
  if (rel.size() == 0) return result;
  const vk::KernelOps& ops = vk::Active();
  const auto entries = prepared.SweepEntries(ties);
  internal::KernelArena arena;
  internal::AlignedBuf& row = arena.Doubles(4);
  std::vector<int> winners(kk, -1);
  std::vector<double> best(kk, 0.0);
  result.prune_stop_position = static_cast<long long>(internal::SweepChunkGrid(
      rel, prepared.rank_order(), ties, *entries, &arena,
      [&](int i, const internal::AlignedBuf& appear) {
        row.resize(appear.size());
        ops.scale(row.data(), appear.data(), rel.tuple(i).prob,
                  appear.size());
        URANK_DCHECK_MSG(internal::AllFiniteInRange(
                             std::span<const double>(row.data(), row.size()),
                             0.0, 1.0),
                         "positional probability outside [0,1]");
        ++result.tuples_scanned;
        ops.argmax_merge(row.data(), prepared.ids()[static_cast<size_t>(i)],
                         best.data(), winners.data(),
                         std::min(kk, row.size()));
      },
      [&](size_t, const internal::AlignedBuf& pmf) {
        for (size_t r = 0; r < kk; ++r) {
          if (!internal::PmfCdfBelow(pmf, r + 2,
                                     best[r] - internal::kPruneStopSlack)) {
            return false;
          }
        }
        return true;
      }));
  result.topk.resize(kk);
  for (size_t r = 0; r < kk; ++r) result.topk[r] = {winners[r], best[r]};
  return result;
}

}  // namespace urank
