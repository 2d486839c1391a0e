#include "core/rank_distribution_tuple.h"

#include <algorithm>
#include <numeric>

#include "core/internal/kernel_arena.h"
#include "core/internal/tuple_sweep.h"
#include "core/internal/vector_kernels.h"
#include "util/check.h"
#include "util/kernel_annotations.h"

namespace urank {
namespace {

// The sweep primitives (rank order, chunk grid, prefix replay, incremental
// Poisson-binomial chunk sweep, absent-branch world-size state) live in
// core/internal/tuple_sweep.* so the pruned quantile kernels run the
// bit-identical machinery. This TU keeps only the per-tuple mixtures and
// the parallel dispatch.

constexpr double kProbEps = internal::kTupleSweepProbEps;

using internal::AlignedBuf;

KernelReport CollectReport(const ForRunInfo& info,
                           const std::vector<internal::KernelArena>& arenas) {
  KernelReport report;
  report.threads_used = info.participants;
  report.nodes_used = info.nodes_used;
  report.arena_bytes = 0;
  for (const internal::KernelArena& arena : arenas) {
    report.arena_bytes += arena.bytes();
  }
  return report;
}

// The parallel gate's work estimate for one sweep: n tuples, each
// touching a Poisson binomial over at most m + 1 rule counts.
long long TupleSweepCells(const TupleRelation& rel) {
  return static_cast<long long>(rel.size()) * (rel.num_rules() + 1LL);
}

}  // namespace

TupleSweepEntryTable BuildTupleSweepEntryTable(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties) {
  TupleSweepEntryTable table;
  table.starts = internal::PlanTupleChunkStarts(rel, rank_order, ties);
  table.num_rules = rel.num_rules();
  const size_t chunks = table.starts.size() - 1;
  const size_t m = static_cast<size_t>(table.num_rules);
  table.entry_mass.assign(chunks * m, 0.0);
  // One sequential pass with the exact ReplayTuplePrefix recurrence
  // (min-clamped additions in rank order), snapshotted at every chunk
  // start: snapshot c holds precisely the values
  // ReplayTuplePrefix(rel, order, starts[c]) would compute, because it is
  // the same operations in the same order.
  std::vector<double> cur(m, 0.0);
  size_t next = 0;
  for (size_t idx = 0; idx <= rank_order.size(); ++idx) {
    while (next < chunks && table.starts[next] == idx) {
      std::copy(cur.begin(), cur.end(),
                table.entry_mass.begin() + static_cast<long>(next * m));
      ++next;
    }
    if (idx == rank_order.size()) break;
    const int i = rank_order[idx];
    const size_t r = static_cast<size_t>(rel.rule_of(i));
    // urank-lint: allow(kernel-vectorize) — scatter keyed by rule index.
    cur[r] = std::min(cur[r] + rel.tuple(i).prob, 1.0);
  }
  return table;
}

int TupleSweepChunkCount(const TupleRelation& rel) {
  return DeterministicChunkCount(static_cast<long long>(rel.size()));
}

void ForEachTupleRankDistribution(
    const TupleRelation& rel, TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn) {
  ForEachTupleRankDistribution(rel, internal::TupleRankOrder(rel), ties, fn);
}

void ForEachTupleRankDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn) {
  // Serial execution of the identical chunk grid: chunk 0, then chunk 1,
  // ... — the full sweep order, with results bit-identical to any thread
  // count.
  ForEachTupleRankDistribution(
      rel, rank_order, ties, ParallelismOptions{}, nullptr,
      [&fn](int /*chunk*/, int i, std::span<const double> dist) {
        fn(i, dist);
      });
}

URANK_KERNEL void ForEachTupleRankDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report,
    const std::function<void(int, int, std::span<const double>)>& fn,
    const TupleSweepEntryTable* entries) {
  const int n = rel.size();
  // The grid is identical either way (the table stores
  // PlanTupleChunkStarts's output); reusing the table's copy just skips
  // recomputing it.
  const std::vector<size_t> starts =
      entries != nullptr ? entries->starts
                         : internal::PlanTupleChunkStarts(rel, rank_order,
                                                          ties);
  const int chunks = static_cast<int>(starts.size()) - 1;
  const internal::AbsentContext absent(rel);
  const int workers = PlannedWorkers(par, chunks, TupleSweepCells(rel));
  std::vector<internal::KernelArena> arenas(static_cast<size_t>(workers));

  const ForRunInfo used = ParallelForPlaced(
      chunks, workers, par.placement, [&](int chunk, int slot) {
    internal::KernelArena& arena = arenas[static_cast<size_t>(slot)];
    const vk::KernelOps& ops = vk::Active();
    // Acquire the highest slot first: a later Doubles() call with a larger
    // index would invalidate previously returned references.
    AlignedBuf& absent_buf = arena.Doubles(5);
    AlignedBuf& dist = arena.Doubles(4);
    dist.assign(static_cast<size_t>(n) + 1, 0.0);
    size_t dirty = 0;  // high-water mark of the nonzero prefix of dist
    internal::SweepAppearChunk(
        rel, rank_order, ties, starts[static_cast<size_t>(chunk)],
        starts[static_cast<size_t>(chunk) + 1],
        internal::TupleSweepEntryRow(entries, chunk), &arena,
        [&](int i, const AlignedBuf& appear) {
          const TLTuple& t = rel.tuple(i);
          const size_t na = appear.size();
          // Only [na, dirty) keeps stale mass: the appear-branch scale
          // overwrites [0, na) and everything at or beyond `dirty` is
          // still exactly zero.
          if (dirty > na) {
            std::fill(dist.begin() + static_cast<long>(na),
                      dist.begin() + static_cast<long>(dirty), 0.0);
          }
          ops.scale(dist.data(), appear.data(), t.prob, na);
          size_t hi = na;
          if (t.prob < 1.0 - kProbEps) {
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
          fn(chunk, i, std::span<const double>(dist.data(), dist.size()));
        });
  });
  if (report != nullptr) report->Merge(CollectReport(used, arenas));
}

std::vector<std::vector<double>> TupleRankDistributions(
    const TupleRelation& rel, TiePolicy ties) {
  std::vector<std::vector<double>> dists(
      static_cast<size_t>(rel.size()),
      std::vector<double>(static_cast<size_t>(rel.size()) + 1, 0.0));
  ForEachTupleRankDistribution(
      rel, ties, [&](int i, std::span<const double> dist) {
        dists[static_cast<size_t>(i)].assign(dist.begin(), dist.end());
      });
  return dists;
}

void ForEachTuplePositionalDistribution(
    const TupleRelation& rel, TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn) {
  ForEachTuplePositionalDistribution(rel, internal::TupleRankOrder(rel), ties,
                                     fn);
}

void ForEachTuplePositionalDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties,
    const std::function<void(int, std::span<const double>)>& fn) {
  ForEachTuplePositionalDistribution(
      rel, rank_order, ties, ParallelismOptions{}, nullptr,
      [&fn](int /*chunk*/, int i, std::span<const double> row) {
        fn(i, row);
      });
}

URANK_KERNEL void ForEachTuplePositionalDistribution(
    const TupleRelation& rel, const std::vector<int>& rank_order,
    TiePolicy ties, const ParallelismOptions& par, KernelReport* report,
    const std::function<void(int, int, std::span<const double>)>& fn,
    const TupleSweepEntryTable* entries) {
  const std::vector<size_t> starts =
      entries != nullptr ? entries->starts
                         : internal::PlanTupleChunkStarts(rel, rank_order,
                                                          ties);
  const int chunks = static_cast<int>(starts.size()) - 1;
  const int workers = PlannedWorkers(par, chunks, TupleSweepCells(rel));
  std::vector<internal::KernelArena> arenas(static_cast<size_t>(workers));

  const ForRunInfo used = ParallelForPlaced(
      chunks, workers, par.placement, [&](int chunk, int slot) {
    internal::KernelArena& arena = arenas[static_cast<size_t>(slot)];
    const vk::KernelOps& ops = vk::Active();
    AlignedBuf& row = arena.Doubles(4);
    internal::SweepAppearChunk(
        rel, rank_order, ties, starts[static_cast<size_t>(chunk)],
        starts[static_cast<size_t>(chunk) + 1],
        internal::TupleSweepEntryRow(entries, chunk), &arena,
        [&](int i, const AlignedBuf& appear) {
          const double p = rel.tuple(i).prob;
          row.resize(appear.size());
          ops.scale(row.data(), appear.data(), p, appear.size());
          fn(chunk, i, std::span<const double>(row.data(), row.size()));
        });
  });
  if (report != nullptr) report->Merge(CollectReport(used, arenas));
}

std::vector<std::vector<double>> TuplePositionalProbabilities(
    const TupleRelation& rel, TiePolicy ties) {
  std::vector<std::vector<double>> pos(
      static_cast<size_t>(rel.size()),
      std::vector<double>(static_cast<size_t>(rel.size()) + 1, 0.0));
  ForEachTuplePositionalDistribution(
      rel, ties, [&](int i, std::span<const double> row) {
        std::copy(row.begin(), row.end(),
                  pos[static_cast<size_t>(i)].begin());
      });
  return pos;
}

}  // namespace urank
