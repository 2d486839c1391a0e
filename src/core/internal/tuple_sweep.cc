#include "core/internal/tuple_sweep.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/kernel_annotations.h"
#include "util/parallel.h"
#include "util/poisson_binomial.h"

namespace urank {
namespace internal {

URANK_KERNEL void BufConvolveTrial(const vk::KernelOps& ops, AlignedBuf* pmf,
                                   double p) {
  const size_t n = pmf->size();
  pmf->resize(n + 1);
  ops.convolve_trial(pmf->data(), n, p);
}

URANK_KERNEL bool BufDeconvolveTrial(const vk::KernelOps& ops,
                                     const AlignedBuf& src, double p,
                                     AlignedBuf* out) {
  const size_t n = src.size() - 1;
  out->resize(n);
  return ops.deconvolve_trial(src.data(), n, p, out->data());
}

std::vector<int> TupleRankOrder(const TupleRelation& rel) {
  std::vector<int> order(static_cast<size_t>(rel.size()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double sa = rel.tuple(a).score;
    const double sb = rel.tuple(b).score;
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

std::vector<size_t> PlanTupleChunkStarts(const TupleRelation& rel,
                                         const std::vector<int>& order,
                                         TiePolicy ties) {
  const size_t n = order.size();
  const int chunks = DeterministicChunkCount(static_cast<long long>(n));
  std::vector<size_t> starts(static_cast<size_t>(chunks) + 1, n);
  starts[0] = 0;
  if (chunks == 1) return starts;

  std::vector<unsigned char> touched(static_cast<size_t>(rel.num_rules()),
                                     0);
  std::vector<long long> cum(n + 1, 0);
  long long support = 0;
  for (size_t idx = 0; idx < n; ++idx) {
    // Integer chunk-cost recurrence for the deterministic chunk grid;
    // not a probability-array sweep.
    // urank-lint: allow(kernel-vectorize)
    cum[idx + 1] = cum[idx] + 1 + support;
    const size_t r = static_cast<size_t>(rel.rule_of(order[idx]));
    // urank-lint: allow(kernel-vectorize) — first-touch flag per rule.
    if (touched[r] == 0) {
      touched[r] = 1;
      ++support;
    }
  }
  const long long total = cum[n];
  int next = 1;
  for (size_t idx = 1; idx < n && next < chunks; ++idx) {
    const bool run_start =
        ties == TiePolicy::kBreakByIndex ||
        rel.tuple(order[idx]).score != rel.tuple(order[idx - 1]).score;
    if (!run_start) continue;
    while (next < chunks &&
           cum[idx] >= total * static_cast<long long>(next) / chunks) {
      starts[static_cast<size_t>(next)] = idx;
      ++next;
    }
  }
  return starts;
}

URANK_KERNEL void ReplayTuplePrefix(const TupleRelation& rel,
                                    const std::vector<int>& order,
                                    size_t begin, AlignedBuf* cur) {
  cur->assign(static_cast<size_t>(rel.num_rules()), 0.0);
  for (size_t idx = 0; idx < begin; ++idx) {
    const int i = order[idx];
    const size_t r = static_cast<size_t>(rel.rule_of(i));
    // urank-lint: allow(kernel-vectorize) — scatter keyed by rule index.
    (*cur)[r] = std::min((*cur)[r] + rel.tuple(i).prob, 1.0);
  }
}

URANK_KERNEL void ChunkSweep::Rebuild(AlignedBuf* out, int skip_rule) const {
  out->assign(1, 1.0);
  const int m = rel.num_rules();
  for (int r = 0; r < m; ++r) {
    if (r == skip_rule) continue;
    const double v = cur[static_cast<size_t>(r)];
    if (v > 0.0) BufConvolveTrial(ops, out, v);
  }
}

URANK_KERNEL const AlignedBuf* ChunkSweep::WithoutRule(int r,
                                                       AlignedBuf* out) const {
  const double v = cur[static_cast<size_t>(r)];
  if (v <= 0.0) return &pmf;
  if (!BufDeconvolveTrial(ops, pmf, v, out)) Rebuild(out, r);
  return out;
}

URANK_KERNEL void ChunkSweep::Flush(int i) {
  const size_t r = static_cast<size_t>(rel.rule_of(i));
  const double old_mass = cur[r];
  if (old_mass > 0.0) {
    if (BufDeconvolveTrial(ops, pmf, old_mass, &scratch)) {
      pmf.swap(scratch);
    } else {
      Rebuild(&scratch, static_cast<int>(r));
      pmf.swap(scratch);
    }
  }
  // Rule mass stays a probability: Validate() bounds each rule's sum
  // by 1 + tolerance, and the sweep only ever adds member masses.
  URANK_DCHECK_PROB(old_mass + rel.tuple(i).prob);
  cur[r] = std::min(old_mass + rel.tuple(i).prob, 1.0);
  if (cur[r] > 0.0) BufConvolveTrial(ops, &pmf, cur[r]);
}

URANK_KERNEL size_t SweepAppearChunk(
    const TupleRelation& rel, const std::vector<int>& order, TiePolicy ties,
    size_t begin, size_t end, const double* entry_mass, KernelArena* arena,
    const std::function<void(int, const AlignedBuf&)>& per_tuple,
    const TupleSweepStopFn* stop) {
  const vk::KernelOps& ops = vk::Active();
  // Highest slot first: acquiring a new slot may move the lower ones.
  AlignedBuf& appear = arena->Doubles(3);
  AlignedBuf& cur = arena->Doubles(0);
  AlignedBuf& pmf = arena->Doubles(1);
  AlignedBuf& scratch = arena->Doubles(2);
  if (entry_mass != nullptr) {
    cur.assign(entry_mass, static_cast<size_t>(rel.num_rules()));
  } else {
    ReplayTuplePrefix(rel, order, begin, &cur);
  }
  ChunkSweep sweep{rel, ops, cur, pmf, scratch};
  sweep.Rebuild(&pmf, -1);

  size_t pos = begin;
  while (pos < end) {
    size_t run_end = pos + 1;
    if (ties == TiePolicy::kStrictGreater) {
      while (run_end < end &&
             rel.tuple(order[run_end]).score ==
                 rel.tuple(order[pos]).score) {
        ++run_end;
      }
    }
    for (size_t idx = pos; idx < run_end; ++idx) {
      const int i = order[idx];
      per_tuple(i, *sweep.WithoutRule(rel.rule_of(i), &appear));
    }
    for (size_t idx = pos; idx < run_end; ++idx) sweep.Flush(order[idx]);
    pos = run_end;
    if (stop != nullptr && (*stop)(pos, pmf)) return pos;
  }
  return pos;
}

size_t SweepChunkGrid(
    const TupleRelation& rel, const std::vector<int>& order, TiePolicy ties,
    const TupleSweepEntryTable& entries, KernelArena* arena,
    const std::function<void(int, const AlignedBuf&)>& per_tuple,
    const TupleSweepStopFn& stop) {
  bool stopped = false;
  const TupleSweepStopFn hook = [&](size_t next_pos, const AlignedBuf& pmf) {
    stopped = next_pos < order.size() && stop(next_pos, pmf);
    return stopped;
  };
  const int chunks = static_cast<int>(entries.starts.size()) - 1;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    const size_t pos = SweepAppearChunk(
        rel, order, ties, entries.starts[static_cast<size_t>(chunk)],
        entries.starts[static_cast<size_t>(chunk) + 1],
        TupleSweepEntryRow(&entries, chunk), arena, per_tuple, &hook);
    if (stopped) return pos;
  }
  return order.size();
}

URANK_KERNEL bool PmfCdfBelow(const AlignedBuf& pmf, size_t count,
                              double bound) {
  if (count >= pmf.size()) return 1.0 < bound;
  double cdf = 0.0;
  for (size_t c = 0; c < count; ++c) {
    // Early-exit threshold scan, same discipline as QuantileFromPmf.
    // urank-lint: allow(kernel-vectorize)
    cdf += pmf[c];
    if (cdf >= bound) return false;
  }
  return true;
}

AbsentContext::AbsentContext(const TupleRelation& rel) {
  const int m = rel.num_rules();
  rule_sums.resize(static_cast<size_t>(m));
  pmf_all.assign(1, 1.0);
  for (int r = 0; r < m; ++r) {
    const double v = std::min(rel.rule_prob_sum(r), 1.0);
    rule_sums[static_cast<size_t>(r)] = v;
    if (v > 0.0) PbConvolveTrial(&pmf_all, v);
  }
}

URANK_KERNEL void AbsentContext::ConditionalWorldSize(const vk::KernelOps& ops,
                                                      int r, double cond,
                                                      AlignedBuf* out) const {
  const double v = rule_sums[static_cast<size_t>(r)];
  if (v > 0.0) {
    const size_t n = pmf_all.size() - 1;
    out->resize(n);
    if (!ops.deconvolve_trial(pmf_all.data(), n, v, out->data())) {
      // Deterministic fallback: rebuild the reduced product directly.
      out->assign(1, 1.0);
      for (size_t r2 = 0; r2 < rule_sums.size(); ++r2) {
        if (static_cast<int>(r2) == r) continue;
        if (rule_sums[r2] > 0.0) BufConvolveTrial(ops, out, rule_sums[r2]);
      }
    }
  } else {
    out->assign(pmf_all.data(), pmf_all.size());
  }
  if (cond > 0.0) BufConvolveTrial(ops, out, cond);
}

}  // namespace internal
}  // namespace urank
