#include "core/semantics/semantics.h"

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

std::vector<double> AttrTopKProbabilities(
    const PreparedAttrRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kTopKProbability, k, 0.0, ties};
  return *prepared.CachedStat(key, [&] {
    const auto dists = prepared.RankDistributions(ties, par, report);
    const vk::KernelOps& ops = vk::Active();
    std::vector<double> probs(static_cast<size_t>(prepared.size()), 0.0);
    for (int i = 0; i < prepared.size(); ++i) {
      const auto& dist = (*dists)[static_cast<size_t>(i)];
      const size_t hi = std::min(static_cast<size_t>(k), dist.size());
      const double cdf = ops.sum(dist.data(), hi);
      URANK_DCHECK_PROB(cdf);
      probs[static_cast<size_t>(i)] = std::min(cdf, 1.0);
    }
    return probs;
  });
}

std::vector<double> TupleTopKProbabilities(
    const PreparedTupleRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const StatKey key{StatKey::Kind::kTopKProbability, k, 0.0, ties};
  return *prepared.CachedStat(key, [&] {
    // Positional entries at ranks above M are zero, so summing the first
    // min(k, M+1) streamed entries equals the matrix form's first-k sum.
    // Chunk callbacks write disjoint positions, so concurrent chunks need
    // no further coordination.
    std::vector<double> probs(static_cast<size_t>(prepared.size()), 0.0);
    const vk::KernelOps& ops = vk::Active();
    const auto entries = prepared.SweepEntries(ties);
    ForEachTuplePositionalDistribution(
        prepared.relation(), prepared.rank_order(), ties, par, report,
        [&](int /*chunk*/, int i, std::span<const double> row) {
          const size_t hi = std::min(static_cast<size_t>(k), row.size());
          const double cdf = ops.sum(row.data(), hi);
          URANK_DCHECK_PROB(cdf);
          probs[static_cast<size_t>(i)] = std::min(cdf, 1.0);
        },
        entries.get());
    return probs;
  });
}

namespace internal {

URANK_KERNEL PrunedTopKResult TupleTopKProbabilityPrune(
    const PreparedTupleRelation& prepared, int k, double threshold,
    int limit, TiePolicy ties) {
  const TupleRelation& rel = prepared.relation();
  const int n = rel.size();
  PrunedTopKResult result;
  result.prune_stop_position = n;
  if (n == 0) return result;
  const vk::KernelOps& ops = vk::Active();
  const auto entries = prepared.SweepEntries(ties);
  KernelArena arena;
  AlignedBuf& row = arena.Doubles(4);
  // Keyed by the negated probability, so the heap's (statistic asc, id
  // asc) order is (probability desc, id asc).
  KBestHeap heap(limit, n);
  result.prune_stop_position = static_cast<long long>(SweepChunkGrid(
      rel, prepared.rank_order(), ties, *entries, &arena,
      [&](int i, const AlignedBuf& appear) {
        row.resize(appear.size());
        ops.scale(row.data(), appear.data(), rel.tuple(i).prob,
                  appear.size());
        const size_t hi = std::min(static_cast<size_t>(k), row.size());
        const double cdf = ops.sum(row.data(), hi);
        URANK_DCHECK_PROB(cdf);
        const double prob = std::min(cdf, 1.0);
        ++result.tuples_scanned;
        if (prob >= threshold) heap.Offer(-prob, rel.tuple(i).id);
      },
      [&](size_t, const AlignedBuf& pmf) {
        const double bound = heap.full() ? std::max(threshold, -heap.kth())
                                         : threshold;
        return PmfCdfBelow(pmf, static_cast<size_t>(k) + 1,
                           bound - kPruneStopSlack);
      }));
  result.topk = heap.Ranked();
  for (RankedTuple& rt : result.topk) rt.statistic = -rt.statistic;
  return result;
}

}  // namespace internal
}  // namespace urank
