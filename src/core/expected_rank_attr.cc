#include "core/expected_rank_attr.h"

#include <algorithm>
#include <unordered_map>

#include "core/engine/prepared_relation.h"
#include "core/internal/shard_plan.h"
#include "core/internal/sorted_pdf.h"
#include "core/internal/value_universe.h"
#include "core/rank_distribution_attr.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {

using internal::PrEqualPair;
using internal::PrGreaterPair;
using internal::SortedPdf;

std::vector<double> AttrExpectedRanksBruteForce(const AttrRelation& rel,
                                                TiePolicy ties) {
  const int n = rel.size();
  const std::vector<SortedPdf> pdfs = BuildSortedPdfs(rel);
  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    double r = 0.0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      r += PrGreaterPair(pdfs[static_cast<size_t>(j)],
                         pdfs[static_cast<size_t>(i)]);
      if (ties == TiePolicy::kBreakByIndex && j < i) {
        r += PrEqualPair(pdfs[static_cast<size_t>(j)],
                         pdfs[static_cast<size_t>(i)]);
      }
    }
    ranks[static_cast<size_t>(i)] = r;
  }
  return ranks;
}

namespace {

// A-ERank (eq. 4) against a prebuilt value universe.
URANK_KERNEL
std::vector<double> ExpectedRanksWithUniverse(
    const AttrRelation& rel, const internal::ValueUniverse& universe,
    TiePolicy ties) {
  const int n = rel.size();
  // For kBreakByIndex, a tie with an earlier tuple also counts as being
  // outranked: add Σ_l p_{i,l} · Σ_{j<i} Pr[X_j = v_{i,l}], maintained
  // with a running per-value equal-mass map over tuples seen so far.
  std::unordered_map<double, double> equal_mass_before;

  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const AttrTuple& t = rel.tuple(i);
    double r = 0.0;
    for (const ScoreValue& sv : t.pdf) {
      // q(v) counts X_i's own mass above v too; subtract it (eq. 4).
      r += sv.prob * (universe.QGreater(sv.value) - t.PrGreater(sv.value));
      if (ties == TiePolicy::kBreakByIndex) {
        auto it = equal_mass_before.find(sv.value);
        if (it != equal_mass_before.end()) r += sv.prob * it->second;
      }
    }
    ranks[static_cast<size_t>(i)] = r;
    if (ties == TiePolicy::kBreakByIndex) {
      for (const ScoreValue& sv : t.pdf) {
        equal_mass_before[sv.value] += sv.prob;
      }
    }
  }
  // An attribute-level tuple is always present, so its expected rank is a
  // mean over [0, N-1].
  URANK_DCHECK_MSG(internal::AllFiniteInRange(ranks, 0.0,
                                              static_cast<double>(n - 1)),
                   "expected rank outside [0, N-1]");
  return ranks;
}

// Shard-local A-ERank pass over tuples [shard.begin, shard.end). The
// running equal-mass map of the serial kernel is replaced by the plan's
// per-entry snapshots of that exact map (taken before each tuple's own
// masses are added), so the arithmetic below reproduces the serial reads
// bit for bit: a snapshot of 0.0 corresponds to a serial map miss (no
// add) or an exact-zero hit (r += prob * 0.0, a no-op — r is never -0.0
// because every term is a product/difference that cannot produce -0.0
// from these non-negative masses).
URANK_KERNEL
void ExpectedRanksAttrShardSweep(const AttrRelation& rel,
                                 const internal::ValueUniverse& universe,
                                 const internal::AttrShard& shard,
                                 TiePolicy ties, std::vector<double>* ranks) {
  for (int i = shard.begin; i < shard.end; ++i) {
    const AttrTuple& t = rel.tuple(i);
    const std::size_t off =
        shard.tie_offset[static_cast<size_t>(i - shard.begin)];
    double r = 0.0;
    std::size_t l = 0;
    for (const ScoreValue& sv : t.pdf) {
      // Sorted-universe binary searches per pdf entry — data-dependent
      // lookups, not a contiguous sweep a vector kernel could express.
      // urank-lint: allow(kernel-vectorize)
      r += sv.prob * (universe.QGreater(sv.value) - t.PrGreater(sv.value));
      if (ties == TiePolicy::kBreakByIndex) {
        const double mass = shard.tie_mass[off + l];
        if (mass != 0.0) r += sv.prob * mass;
      }
      ++l;
    }
    (*ranks)[static_cast<size_t>(i)] = r;
  }
}

// Shard-parallel A-ERank over the prepared plan; writes are disjoint
// across shards (each tuple position lives in exactly one shard).
std::vector<double> ExpectedRanksSharded(const AttrRelation& rel,
                                         const internal::ValueUniverse& universe,
                                         const internal::AttrShardPlan& plan,
                                         TiePolicy ties,
                                         const ParallelismOptions& par,
                                         KernelReport* report) {
  const int n = rel.size();
  std::vector<double> ranks(static_cast<size_t>(n), 0.0);
  const int num_chunks = static_cast<int>(plan.shards.size());
  const int workers =
      PlannedWorkers(par, num_chunks, static_cast<long long>(n));
  const ForRunInfo info = ParallelForPlaced(
      num_chunks, workers, par.placement, [&](int chunk, int /*slot*/) {
        ExpectedRanksAttrShardSweep(
            rel, universe, plan.shards[static_cast<size_t>(chunk)], ties,
            &ranks);
      });
  if (report != nullptr) {
    KernelReport kr;
    kr.threads_used = info.participants;
    kr.nodes_used = info.nodes_used;
    report->Merge(kr);
  }
  URANK_DCHECK_MSG(internal::AllFiniteInRange(ranks, 0.0,
                                              static_cast<double>(n - 1)),
                   "expected rank outside [0, N-1]");
  return ranks;
}

}  // namespace

std::vector<double> AttrExpectedRanks(const PreparedAttrRelation& prepared,
                                      TiePolicy ties,
                                      const ParallelismOptions& par,
                                      KernelReport* report) {
  const StatKey key{StatKey::Kind::kExpectedRank, 0, 0.0, ties};
  return *prepared.CachedStat(key, [&] {
    return ExpectedRanksSharded(prepared.relation(), prepared.universe(),
                                prepared.shard_plan(), ties, par, report);
  });
}

std::vector<RankedTuple> AttrExpectedRankTopK(
    const PreparedAttrRelation& prepared, int k, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  return TopKByStatistic(prepared.ids(),
                         AttrExpectedRanks(prepared, ties, par, report), k);
}

PrunedTopKResult AttrExpectedRankTopKPrune(const PreparedAttrRelation& prepared,
                                           int k, bool clamp_tail_bounds) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  const AttrRelation& rel = prepared.relation();
  for (const AttrTuple& t : rel.tuples()) {
    for (const ScoreValue& sv : t.pdf) {
      URANK_CHECK_MSG(sv.value > 0.0,
                      "A-ERank-Prune requires strictly positive scores");
    }
  }
  const int total = rel.size();
  const std::vector<SortedPdf>& all_pdfs = prepared.sorted_pdfs();

  // Markov tail mass of one tuple against threshold expectation e:
  // Σ_l p_l · (e / v_l), each term optionally clamped to its trivial
  // probability bound of 1.
  auto tail_bound = [clamp_tail_bounds](const SortedPdf& pdf, double e) {
    double sum = 0.0;
    for (size_t l = 0; l < pdf.values.size(); ++l) {
      const double term = e / pdf.values[l];
      sum += pdf.probs[l] * (clamp_tail_bounds ? std::min(term, 1.0) : term);
    }
    return sum;
  };

  // State for seen tuples, in escore_order (expected score desc, index
  // asc): their positions and A_i = Σ_{seen j≠i} Pr[X_j > X_i].
  std::vector<int> seen;
  std::vector<double> pair_sum;
  for (const int i : prepared.escore_order()) {
    const SortedPdf& pdf = all_pdfs[static_cast<size_t>(i)];
    double own_pairs = 0.0;
    for (size_t j = 0; j < seen.size(); ++j) {
      const SortedPdf& other = all_pdfs[static_cast<size_t>(seen[j])];
      // Each iteration is an O(s+s') sorted-pdf merge inside
      // PrGreaterPair, not an elementwise array sweep.
      // urank-lint: allow(kernel-vectorize)
      pair_sum[j] += PrGreaterPair(pdf, other);
      own_pairs += PrGreaterPair(other, pdf);
    }
    seen.push_back(i);
    pair_sum.push_back(own_pairs);

    const int n = static_cast<int>(seen.size());
    if (n < k) continue;  // cannot have k candidates yet
    if (n == total) break;

    // The order descends by expected score, so E[X_n] bounds every unseen
    // tuple's expectation; Markov gives Pr[X_u > v] <= E[X_n] / v.
    const double expected_n =
        prepared.expected_scores()[static_cast<size_t>(i)];
    double tail_sum = 0.0;  // Σ_{seen j} bound on Pr[X_j <= X_u]
    for (const int j : seen) {
      tail_sum += tail_bound(all_pdfs[static_cast<size_t>(j)], expected_n);
    }
    const double r_minus = static_cast<double>(n) - tail_sum;  // eq. (6)
    int below = 0;
    for (size_t j = 0; j < seen.size(); ++j) {
      const double r_plus =
          pair_sum[j] +
          static_cast<double>(total - n) *
              tail_bound(all_pdfs[static_cast<size_t>(seen[j])],
                         expected_n);  // eq. (5)
      if (r_plus < r_minus) ++below;
    }
    if (below >= k) break;
  }

  // Exact expected ranks within the curtailed prefix D' (the paper's
  // surrogate for the unknown full ranks).
  std::vector<AttrTuple> prefix;
  prefix.reserve(seen.size());
  for (const int i : seen) prefix.push_back(rel.tuple(i));
  AttrRelation curtailed(std::move(prefix));
  std::vector<double> ranks = ExpectedRanksWithUniverse(
      curtailed, internal::BuildValueUniverse(curtailed),
      TiePolicy::kStrictGreater);
  std::vector<int> ids(static_cast<size_t>(curtailed.size()));
  for (int i = 0; i < curtailed.size(); ++i) {
    ids[static_cast<size_t>(i)] = curtailed.tuple(i).id;
  }
  PrunedTopKResult result;
  result.topk = TopKByStatistic(ids, ranks, k);
  result.tuples_scanned = static_cast<long long>(seen.size());
  result.prune_stop_position = result.tuples_scanned;
  return result;
}

}  // namespace urank
