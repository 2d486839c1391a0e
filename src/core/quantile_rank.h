// Median and quantile ranks (paper Section 7).
//
// The φ-quantile rank of a tuple is the smallest rank value whose
// cumulative probability in the tuple's rank distribution reaches φ
// (Definition 9); the median rank is the φ = 0.5 case. Ranking ascends by
// the quantile rank, with the library-wide id tie-break.
//
// Complexities follow the underlying rank-distribution DPs: O(s N³) for
// the attribute-level model and O(N M²) worst case (O(N M) typical, via
// incremental Poisson-binomial updates) for the tuple-level model.

#ifndef URANK_CORE_QUANTILE_RANK_H_
#define URANK_CORE_QUANTILE_RANK_H_

#include <span>
#include <vector>

#include "core/ranking.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

class PreparedAttrRelation;   // core/engine/prepared_relation.h
class PreparedTupleRelation;  // core/engine/prepared_relation.h

// Smallest index r with Σ_{c<=r} pmf[c] >= phi. Requires phi in (0, 1] and
// a non-empty pmf summing to ~1; returns the last index if round-off keeps
// the cdf below phi. The span form is the primary; the vector overload
// exists so braced-init call sites keep working.
int QuantileFromPmf(std::span<const double> pmf, double phi);
int QuantileFromPmf(const std::vector<double>& pmf, double phi);

// Descriptive statistics of one tuple's rank distribution — the objects
// Section 7 argues are "important statistics to characterize the rank
// distribution ... of independent interest".
struct RankDistributionSummary {
  double mean = 0.0;      // the expected rank
  double variance = 0.0;  // spread of the rank across worlds
  double stddev = 0.0;
  int median = 0;         // 0.5-quantile
  int q25 = 0;            // 0.25-quantile
  int q75 = 0;            // 0.75-quantile
  int mode = 0;           // most likely rank (smallest on ties)
  int min_rank = 0;       // smallest rank with positive probability
  int max_rank = 0;       // largest rank with positive probability
};

// Summarizes a rank pmf (as produced by AttrRankDistribution /
// TupleRankDistributions / the Monte Carlo estimators). Requires a
// non-empty pmf with non-negative entries summing to ~1.
RankDistributionSummary SummarizeRankDistribution(
    const std::vector<double>& pmf);

// φ-quantile ranks of every tuple, indexed by tuple position; the median
// rank is phi = 0.5. The attribute-level form reads the shared
// rank-distribution matrix, the tuple-level form sweeps the prepared rank
// order; both memoize the quantile-rank vector per (phi, ties) so the
// underlying DP runs once. A cache miss runs the DP with `par` worker
// slots (bit-identical results regardless) and Merge()s what the kernel
// did into `report` when non-null; a cache hit leaves `report` untouched.
// Requires phi in (0, 1].
std::vector<int> AttrQuantileRanks(const PreparedAttrRelation& prepared,
                                   double phi,
                                   TiePolicy ties = TiePolicy::kBreakByIndex,
                                   const ParallelismOptions& par = {},
                                   KernelReport* report = nullptr);
std::vector<int> TupleQuantileRanks(const PreparedTupleRelation& prepared,
                                    double phi,
                                    TiePolicy ties = TiePolicy::kBreakByIndex,
                                    const ParallelismOptions& par = {},
                                    KernelReport* report = nullptr);

// Top-k by φ-quantile rank over the memoized vector above. Requires
// k >= 1 and phi in (0, 1]. The reported statistic is the quantile rank.
std::vector<RankedTuple> AttrQuantileRankTopK(
    const PreparedAttrRelation& prepared, int k, double phi,
    TiePolicy ties = TiePolicy::kBreakByIndex);
std::vector<RankedTuple> TupleQuantileRankTopK(
    const PreparedTupleRelation& prepared, int k, double phi,
    TiePolicy ties = TiePolicy::kBreakByIndex);

// ---------------------------------------------------------------------------
// Pruned top-k by φ-quantile rank — the paper's A-ERank-Prune bounding
// discipline (Section 6) applied to the quantile DPs. Both kernels scan
// tuples in the prepared stream order, maintain the k best (quantile, id)
// pairs seen so far, and stop as soon as a sound lower bound proves every
// unscanned tuple's φ-quantile exceeds the current k-th best strictly —
// so the answer is *identical* (bit-for-bit, including the reported
// statistic and the (statistic asc, id asc) tie-break) to the unpruned
// TopK forms above, for every thread count, topology and placement.
//
// Tuple-level bound: after the sweep flushes positions [0, j) of the rank
// order, the count Y of flushed tuples that appear is Poisson-binomial
// over the per-rule prefix masses — the sweep's own state. Every
// unscanned tuple u (lower score) has rank(u) stochastically >= Y - 1 in
// both branches of Definition 7 (appearing: each flushed rule except
// rule(u)'s contributes independently; absent: rank = |W| >= Y). Hence
// Q_phi(rank(u)) >= Q_phi(Y) - 1, and when CDF_Y(kth + 1) < phi the
// quantile of every unscanned tuple is > kth. Cost per run boundary is
// O(kth), on state the sweep already carries.
//
// Attribute-level bound: with all support values >= 0 and e_last the
// expected score of the last scanned tuple (the stream descends by E[X]),
// Markov gives Pr[X_u > v] <= e_last / v for any unscanned u and v > 0;
// conditioned on X_u <= v, rank(u) dominates Y(v) = the Poisson binomial
// of Pr[X_j > v] over scanned tuples j. So Pr[rank(u) <= r] <=
// e_last / v + CDF_{Y(v)}(r); when that bound at r = kth stays below phi
// for any rung of a fixed geometric value ladder, no unscanned tuple can
// reach the top-k. The Y(v) pmfs are maintained incrementally, truncated
// at k + 64 with a lumped tail (exact below the truncation point, which
// is all the CDF test reads). Relations with negative support values get
// an empty ladder: the kernel degrades to a full scan, still exact.
// ---------------------------------------------------------------------------

// Requires k >= 1 and phi in (0, 1]. The attribute-level form computes
// each block's exact rank distributions with `par` worker slots (the
// bound bookkeeping and heap stay serial in stream order, so results are
// bit-identical regardless) and Merge()s kernel usage into `report` when
// non-null. The tuple-level form is a serial sweep of the same
// deterministic chunk grid as the unpruned kernel (internal::
// SweepChunkGrid). Both return the PrunedTopKResult of core/ranking.h.
// Definitions (with the URANK_CHECKs) live in quantile_rank_prune.cc,
// not this header's sibling — hence the suppression:
// urank-lint: allow(precondition)
PrunedTopKResult AttrQuantileRankTopKPrune(
    const PreparedAttrRelation& prepared, int k, double phi,
    TiePolicy ties = TiePolicy::kBreakByIndex,
    const ParallelismOptions& par = ParallelismOptions{},
    KernelReport* report = nullptr);
PrunedTopKResult TupleQuantileRankTopKPrune(
    const PreparedTupleRelation& prepared, int k, double phi,
    TiePolicy ties = TiePolicy::kBreakByIndex);

}  // namespace urank

#endif  // URANK_CORE_QUANTILE_RANK_H_
