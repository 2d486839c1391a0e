#include "core/semantics/semantics.h"

#include <algorithm>
#include <span>

#include "core/engine/prepared_relation.h"
#include "core/internal/vector_kernels.h"
#include "core/rank_distribution_tuple.h"
#include "util/check.h"

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

}  // namespace urank
