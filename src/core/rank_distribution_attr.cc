#include "core/rank_distribution_attr.h"

#include <algorithm>

#include "core/internal/kernel_arena.h"
#include "core/internal/vector_kernels.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {

using internal::AlignedBuf;
using internal::SortedPdf;

namespace {

// PbConvolveTrial on an arena buffer: appends one {1-p, p} trial in place.
URANK_KERNEL void BufConvolveTrial(const vk::KernelOps& ops, AlignedBuf* pmf,
                                   double p) {
  const size_t m = pmf->size();
  pmf->resize(m + 1);
  ops.convolve_trial(pmf->data(), m, p);
}

}  // namespace

std::vector<SortedPdf> BuildSortedPdfs(const AttrRelation& rel) {
  std::vector<SortedPdf> pdfs(static_cast<size_t>(rel.size()));
  std::vector<ScoreValue> scratch;
  for (int j = 0; j < rel.size(); ++j) {
    pdfs[static_cast<size_t>(j)].Build(rel.tuple(j), &scratch);
  }
  return pdfs;
}

URANK_KERNEL void AttrRankDistributionInto(
    const AttrRelation& rel, const std::vector<SortedPdf>& pdfs, int index,
    TiePolicy ties, AlignedBuf* pmf_scratch, std::vector<double>* dist) {
  const int n = rel.size();
  const vk::KernelOps& ops = vk::Active();
  dist->assign(static_cast<size_t>(std::max(n, 1)), 0.0);
  AlignedBuf& pmf = *pmf_scratch;
  const AttrTuple& t = rel.tuple(index);
  for (const ScoreValue& sv : t.pdf) {
    pmf.assign(1, 1.0);
    for (int j = 0; j < n; ++j) {
      if (j == index) continue;
      const SortedPdf& pj = pdfs[static_cast<size_t>(j)];
      double beat = pj.PrGreater(sv.value);
      if (ties == TiePolicy::kBreakByIndex && j < index) {
        beat += pj.PrEqual(sv.value);
      }
      // `beat` may exceed 1 only by accumulated round-off; anything larger
      // means a denormalized source pdf.
      URANK_DCHECK_PROB(beat);
      if (beat > 0.0) BufConvolveTrial(ops, &pmf, std::min(beat, 1.0));
    }
    ops.scale_add(dist->data(), pmf.data(), sv.prob, pmf.size());
  }
  URANK_DCHECK_NORMALIZED(*dist);
}

std::vector<double> AttrRankDistribution(const AttrRelation& rel, int index,
                                         TiePolicy ties) {
  URANK_CHECK_MSG(index >= 0 && index < rel.size(), "tuple index out of range");
  const std::vector<SortedPdf> pdfs = BuildSortedPdfs(rel);
  AlignedBuf pmf_scratch;
  std::vector<double> dist;
  AttrRankDistributionInto(rel, pdfs, index, ties, &pmf_scratch, &dist);
  return dist;
}

std::vector<std::vector<double>> AttrRankDistributions(const AttrRelation& rel,
                                                       TiePolicy ties) {
  return AttrRankDistributions(rel, BuildSortedPdfs(rel), ties,
                               ParallelismOptions{}, nullptr);
}

URANK_KERNEL std::vector<std::vector<double>> AttrRankDistributions(
    const AttrRelation& rel, const std::vector<SortedPdf>& pdfs,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report) {
  const int n = rel.size();
  std::vector<std::vector<double>> dists(static_cast<size_t>(n));
  const int workers =
      PlannedWorkers(par, n, static_cast<long long>(n) * n);
  std::vector<internal::KernelArena> arenas(static_cast<size_t>(workers));
  // One chunk per tuple: per-tuple DP cost dwarfs the chunk-claim atomic,
  // and output rows are disjoint, so any claim order — and any placement —
  // yields identical results.
  const ForRunInfo used = ParallelForPlaced(
      n, workers, par.placement, [&](int i, int slot) {
        internal::KernelArena& arena = arenas[static_cast<size_t>(slot)];
        AttrRankDistributionInto(rel, pdfs, i, ties, &arena.Doubles(0),
                                 &dists[static_cast<size_t>(i)]);
      });
  if (report != nullptr) {
    KernelReport local;
    local.threads_used = used.participants;
    local.nodes_used = used.nodes_used;
    for (const internal::KernelArena& arena : arenas) {
      local.arena_bytes += arena.bytes();
    }
    report->Merge(local);
  }
  return dists;
}

}  // namespace urank
