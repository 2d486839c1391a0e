#include "core/quantile_rank.h"

#include <algorithm>
#include <cmath>

#include "core/engine/prepared_relation.h"
#include "core/rank_distribution_tuple.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {
namespace {

std::vector<double> ToDouble(const std::vector<int>& v) {
  return std::vector<double>(v.begin(), v.end());
}

}  // namespace

URANK_KERNEL
int QuantileFromPmf(std::span<const double> pmf, double phi) {
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  URANK_CHECK_MSG(!pmf.empty(), "pmf must be non-empty");
  URANK_DCHECK_NORMALIZED(pmf);
  double cdf = 0.0;
  for (size_t r = 0; r < pmf.size(); ++r) {
    // Early-exit threshold scan: a vectorized prefix sum would reassociate
    // and could flip the >= phi comparison at round-off boundaries.
    // urank-lint: allow(kernel-vectorize)
    cdf += pmf[r];
    if (cdf >= phi) return static_cast<int>(r);
  }
  return static_cast<int>(pmf.size()) - 1;  // round-off guard
}

int QuantileFromPmf(const std::vector<double>& pmf, double phi) {
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  return QuantileFromPmf(std::span<const double>(pmf), phi);
}

RankDistributionSummary SummarizeRankDistribution(
    const std::vector<double>& pmf) {
  URANK_CHECK_MSG(!pmf.empty(), "pmf must be non-empty");
  RankDistributionSummary s;
  double mass = 0.0;
  double best = -1.0;
  int min_rank = -1, max_rank = 0;
  for (size_t r = 0; r < pmf.size(); ++r) {
    const double p = pmf[r];
    URANK_CHECK_MSG(p >= -1e-12, "pmf entries must be non-negative");
    mass += p;
    s.mean += static_cast<double>(r) * p;
    if (p > best) {
      best = p;
      s.mode = static_cast<int>(r);
    }
    if (p > 0.0) {
      if (min_rank < 0) min_rank = static_cast<int>(r);
      max_rank = static_cast<int>(r);
    }
  }
  URANK_CHECK_MSG(mass > 0.999999 && mass < 1.000001,
                  "pmf must sum to ~1");
  for (size_t r = 0; r < pmf.size(); ++r) {
    const double d = static_cast<double>(r) - s.mean;
    // O(N) summary statistic outside the DP hot path; keeps the documented
    // left-to-right accumulation.
    // urank-lint: allow(kernel-vectorize)
    s.variance += d * d * pmf[r];
  }
  s.stddev = std::sqrt(std::max(s.variance, 0.0));
  s.median = QuantileFromPmf(pmf, 0.5);
  s.q25 = QuantileFromPmf(pmf, 0.25);
  s.q75 = QuantileFromPmf(pmf, 0.75);
  s.min_rank = std::max(min_rank, 0);
  s.max_rank = max_rank;
  return s;
}

std::vector<int> AttrQuantileRanks(const PreparedAttrRelation& prepared,
                                   double phi, TiePolicy ties,
                                   const ParallelismOptions& par,
                                   KernelReport* report) {
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  const StatKey key{StatKey::Kind::kQuantileRank, 0, phi, ties};
  const auto stat = prepared.CachedStat(key, [&] {
    const auto dists = prepared.RankDistributions(ties, par, report);
    std::vector<double> ranks(static_cast<size_t>(prepared.size()), 0.0);
    for (int i = 0; i < prepared.size(); ++i) {
      // Per-tuple statistic gather, not an elementwise probability sweep.
      // urank-lint: allow(kernel-vectorize)
      ranks[static_cast<size_t>(i)] = static_cast<double>(
          QuantileFromPmf((*dists)[static_cast<size_t>(i)], phi));
    }
    return ranks;
  });
  return std::vector<int>(stat->begin(), stat->end());
}

std::vector<int> TupleQuantileRanks(const PreparedTupleRelation& prepared,
                                    double phi, TiePolicy ties,
                                    const ParallelismOptions& par,
                                    KernelReport* report) {
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  const StatKey key{StatKey::Kind::kQuantileRank, 0, phi, ties};
  const auto stat = prepared.CachedStat(key, [&] {
    std::vector<double> ranks(static_cast<size_t>(prepared.size()), 0.0);
    // Chunk callbacks write disjoint positions, so concurrent chunks need
    // no further coordination. The memoized entry table lets each chunk
    // start from its precomputed prefix state.
    const auto entries = prepared.SweepEntries(ties);
    ForEachTupleRankDistribution(
        prepared.relation(), prepared.rank_order(), ties, par, report,
        [&](int /*chunk*/, int i, std::span<const double> dist) {
          ranks[static_cast<size_t>(i)] =
              static_cast<double>(QuantileFromPmf(dist, phi));
        },
        entries.get());
    return ranks;
  });
  return std::vector<int>(stat->begin(), stat->end());
}

std::vector<RankedTuple> AttrQuantileRankTopK(
    const PreparedAttrRelation& prepared, int k, double phi,
    TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  return TopKByStatistic(prepared.ids(),
                         ToDouble(AttrQuantileRanks(prepared, phi, ties)),
                         k);
}

std::vector<RankedTuple> TupleQuantileRankTopK(
    const PreparedTupleRelation& prepared, int k, double phi,
    TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  return TopKByStatistic(prepared.ids(),
                         ToDouble(TupleQuantileRanks(prepared, phi, ties)),
                         k);
}

}  // namespace urank
