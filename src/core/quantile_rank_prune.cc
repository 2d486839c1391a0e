// Pruned top-k quantile/median rank kernels (see quantile_rank.h for the
// bound derivations, and docs/PERFORMANCE.md "Scaling to N=1M" for the
// complexity discussion). The kernels reuse the exact sweep machinery of
// the unpruned DPs — core/internal/tuple_sweep.* for the tuple level,
// AttrRankDistributionInto for the attribute level — so every per-tuple
// quantile they compute is bit-identical to the unpruned value; pruning
// only truncates the scan once unscanned tuples provably cannot place.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/internal/kernel_arena.h"
#include "core/internal/tuple_sweep.h"
#include "core/internal/value_universe.h"
#include "core/internal/vector_kernels.h"
#include "core/quantile_rank.h"
#include "core/rank_distribution_attr.h"
#include "util/check.h"
#include "util/kernel_annotations.h"
#include "util/parallel.h"

namespace urank {
namespace {

using internal::AlignedBuf;
using internal::KBestHeap;
using internal::kPruneStopSlack;

// One Bernoulli(p) trial folded into a pmf truncated at `cap` entries:
// exact counts in [0, cap-2], lumped "count >= cap-1" tail at cap-1.
// `*len` is the live prefix of `pmf` (capacity cap, allocated upfront).
URANK_KERNEL void TruncatedConvolveTrial(double* pmf, size_t* len,
                                         size_t cap, double p) {
  if (p <= 0.0) return;
  const size_t n = *len;
  if (n < cap) {
    // urank-lint: allow(kernel-vectorize) — sequential in-place backward
    // convolution; vectorizing would reassociate the CDF the bound reads.
    pmf[n] = pmf[n - 1] * p;
    for (size_t c = n - 1; c > 0; --c) {
      pmf[c] = pmf[c] * (1.0 - p) + pmf[c - 1] * p;
    }
    pmf[0] *= (1.0 - p);
    *len = n + 1;
  } else {
    // A count already >= cap-1 stays there whatever the trial does; the
    // tail only gains the promotions from cap-2.
    pmf[cap - 1] += pmf[cap - 2] * p;
    // urank-lint: allow(kernel-vectorize)
    for (size_t c = cap - 2; c > 0; --c) {
      pmf[c] = pmf[c] * (1.0 - p) + pmf[c - 1] * p;
    }
    pmf[0] *= (1.0 - p);
  }
}

}  // namespace

URANK_KERNEL PrunedTopKResult TupleQuantileRankTopKPrune(
    const PreparedTupleRelation& prepared, int k, double phi,
    TiePolicy ties) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  const TupleRelation& rel = prepared.relation();
  const std::vector<int>& order = prepared.rank_order();
  const int n = rel.size();
  PrunedTopKResult result;
  result.prune_stop_position = n;
  if (n == 0) return result;

  const auto entries = prepared.SweepEntries(ties);
  const internal::AbsentContext absent(rel);
  internal::KernelArena arena;
  const vk::KernelOps& ops = vk::Active();
  // Acquire the highest slot first (see ForEachTupleRankDistribution).
  AlignedBuf& absent_buf = arena.Doubles(5);
  AlignedBuf& dist = arena.Doubles(4);
  dist.assign(static_cast<size_t>(n) + 1, 0.0);
  size_t dirty = 0;  // high-water mark of the nonzero prefix of dist
  KBestHeap heap(k, n);

  // Run-boundary prune test: with Y the Poisson binomial over the flushed
  // per-rule masses (the sweep's own pmf), every unscanned tuple's
  // quantile is >= Q_phi(Y) - 1; stop once CDF_Y(kth + 1) < phi, which
  // makes that lower bound strictly exceed the current k-th best.
  const internal::TupleSweepStopFn stop = [&](size_t, const AlignedBuf& pmf) {
    return heap.full() &&
           internal::PmfCdfBelow(pmf, static_cast<size_t>(heap.kth()) + 2,
                                 phi - kPruneStopSlack);
  };

  // The exact Definition-7 mixture per tuple on the serial chunk-grid
  // driver, so every quantile matches the unpruned sweep bit-for-bit.
  result.prune_stop_position = static_cast<long long>(internal::SweepChunkGrid(
      rel, order, ties, *entries, &arena,
      [&](int i, const AlignedBuf& appear) {
        const TLTuple& t = rel.tuple(i);
        const size_t na = appear.size();
        if (dirty > na) {
          std::fill(dist.begin() + static_cast<long>(na),
                    dist.begin() + static_cast<long>(dirty), 0.0);
        }
        ops.scale(dist.data(), appear.data(), t.prob, na);
        size_t hi = na;
        if (t.prob < 1.0 - internal::kTupleSweepProbEps) {
          const int r = rel.rule_of(i);
          const double cond = std::clamp(
              (rel.rule_prob_sum(r) - t.prob) / (1.0 - t.prob), 0.0, 1.0);
          absent.ConditionalWorldSize(ops, r, cond, &absent_buf);
          ops.scale_add(dist.data(), absent_buf.data(), 1.0 - t.prob,
                        absent_buf.size());
          hi = std::max(hi, absent_buf.size());
        }
        dirty = hi;
        URANK_DCHECK_NORMALIZED(dist);
        ++result.tuples_scanned;
        heap.Offer(static_cast<double>(QuantileFromPmf(
                       std::span<const double>(dist.data(), dist.size()),
                       phi)),
                   t.id);
      },
      stop));
  result.topk = heap.Ranked();
  return result;
}

URANK_KERNEL PrunedTopKResult AttrQuantileRankTopKPrune(
    const PreparedAttrRelation& prepared, int k, double phi, TiePolicy ties,
    const ParallelismOptions& par, KernelReport* report) {
  URANK_CHECK_MSG(k >= 1, "k must be >= 1");
  URANK_CHECK_MSG(phi > 0.0 && phi <= 1.0, "phi must be in (0,1]");
  const AttrRelation& rel = prepared.relation();
  const std::vector<int>& order = prepared.escore_order();
  const std::vector<double>& escores = prepared.expected_scores();
  const std::vector<internal::SortedPdf>& pdfs = prepared.sorted_pdfs();
  const internal::ValueUniverse& uni = prepared.universe();
  const int n = rel.size();
  PrunedTopKResult result;
  result.prune_stop_position = n;
  if (n == 0) return result;

  // Geometric value ladder v = vmax/2, vmax/4, ..., a pure function of
  // the relation. Markov's inequality needs non-negative support, so a
  // relation with any negative value gets an empty ladder (full scan).
  std::vector<double> ladder;
  if (!uni.values.empty() && uni.values.front() >= 0.0) {
    double v = uni.values.back() / 2.0;
    for (int step = 0; step < 8 && v > 0.0; ++step, v /= 2.0) {
      ladder.push_back(v);
    }
  }
  // Truncated Poisson binomials Y(v): exact on [0, cap-2], lumped tail.
  const size_t cap = static_cast<size_t>(k) + 64;
  std::vector<std::vector<double>> ypmf(ladder.size());
  std::vector<size_t> ylen(ladder.size(), 1);
  for (auto& pmf : ypmf) {
    pmf.assign(cap, 0.0);
    pmf[0] = 1.0;
  }

  // Per-worker scratch for the exact per-tuple DP; AlignedBuf is
  // cache-line aligned, so every slot starts its own line. Block results
  // land in disjoint quant[] entries, so the parallel section is
  // deterministic.
  constexpr int kBlock = 64;
  const int workers =
      PlannedWorkers(par, n, static_cast<long long>(n) * n);
  struct WorkerScratch {
    internal::AlignedBuf pmf;
    std::vector<double> dist;
  };
  std::vector<WorkerScratch> scratch(static_cast<size_t>(workers));
  std::vector<int> quant(kBlock, 0);
  KBestHeap heap(k, n);
  long long scanned = 0;
  bool stopped = false;

  for (int block = 0; block < n && !stopped; block += kBlock) {
    const int count = std::min(kBlock, n - block);
    const ForRunInfo info = ParallelForPlaced(
        count, workers, par.placement, [&](int j, int slot) {
          const int i = order[static_cast<size_t>(block + j)];
          WorkerScratch& w = scratch[static_cast<size_t>(slot)];
          AttrRankDistributionInto(rel, pdfs, i, ties, &w.pmf, &w.dist);
          quant[static_cast<size_t>(j)] = QuantileFromPmf(w.dist, phi);
        });
    if (report != nullptr) {
      KernelReport used;
      used.threads_used = info.participants;
      used.nodes_used = info.nodes_used;
      report->Merge(used);
    }
    // Serial bookkeeping in stream order: heap offers, then the ladder
    // pmfs, then the stop test — all pure functions of the relation.
    for (int j = 0; j < count; ++j) {
      const int i = order[static_cast<size_t>(block + j)];
      heap.Offer(static_cast<double>(quant[static_cast<size_t>(j)]),
                 rel.tuple(i).id);
    }
    for (int j = 0; j < count; ++j) {
      const int i = order[static_cast<size_t>(block + j)];
      for (size_t l = 0; l < ladder.size(); ++l) {
        const double p = std::min(pdfs[static_cast<size_t>(i)].PrGreater(
                                      ladder[l]),
                                  1.0);
        TruncatedConvolveTrial(ypmf[l].data(), &ylen[l], cap, p);
      }
    }
    scanned += count;
    if (heap.full() && block + count < n) {
      const double e_last =
          escores[static_cast<size_t>(order[static_cast<size_t>(
              block + count - 1)])];
      const size_t kth = static_cast<size_t>(heap.kth());
      if (kth <= cap - 2) {
        for (size_t l = 0; l < ladder.size() && !stopped; ++l) {
          if (ylen[l] <= kth + 1) continue;  // CDF_Y(kth) is still 1
          double bound = e_last / ladder[l];
          if (bound >= phi - kPruneStopSlack) continue;
          bool over = false;
          for (size_t c = 0; c <= kth; ++c) {
            // urank-lint: allow(kernel-vectorize) — early-exit CDF scan.
            bound += ypmf[l][c];
            if (bound >= phi - kPruneStopSlack) {
              over = true;
              break;
            }
          }
          if (!over) {
            stopped = true;
            result.prune_stop_position =
                static_cast<long long>(block + count);
          }
        }
      }
    }
  }
  if (report != nullptr) {
    KernelReport used;
    for (const WorkerScratch& w : scratch) {
      used.arena_bytes +=
          static_cast<std::uint64_t>(w.pmf.capacity()) * sizeof(double);
    }
    report->Merge(used);
  }
  result.tuples_scanned = scanned;
  result.topk = heap.Ranked();
  return result;
}

}  // namespace urank
