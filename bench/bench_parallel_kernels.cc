// Experiment P1: intra-query scaling of the parallel DP kernels.
//
// Runs the chunked tuple-level rank-distribution sweep (the kernel behind
// median/quantile ranks), the positional sweep (behind PT-k, Global-Topk,
// U-kRanks) and the attribute-level rank-distribution pass at 1, 2, 4 and
// 8 worker threads over one fixed relation each, verifying that every
// thread count produces bit-identical distributions before reporting
// wall-clock, speedup vs the single-thread run, and emitted-DP-cell
// throughput. Only the kernel is timed: each timed pass hands its rows to
// a no-op sink, and the fingerprints and cell counts come from a second,
// untimed pass.
//
// A second family of series pins each compiled-in SIMD dispatch target
// (scalar, AVX2, AVX-512, NEON) in turn and re-runs the kernels single-
// threaded, reporting per-target speedup over the scalar reference — the
// vectorization win independent of thread scaling.
//
// Flags:
//   --smoke        shrink the relations (~20k tuples) for CI smoke runs
//   --json=PATH    append machine-readable results for tools/bench_runner
//
// The speedup column only shows parallel gains on multi-core hosts; the
// identity column must read "yes" everywhere on any host.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/rank_distribution_attr.h"
#include "core/rank_distribution_tuple.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

const int kThreadCounts[] = {1, 2, 4, 8};

struct Measurement {
  std::string kernel;
  int n = 0;
  int threads = 0;
  double wall_ms = 0.0;
  // Thread-scaling series: speedup vs this series' 1-thread run.
  // Dispatch series: speedup vs this series' scalar-target run.
  double speedup_vs_1t = 0.0;
  long long dp_cells = 0;   // nonzero pmf entries emitted
  double cells_per_s = 0.0;
  bool identical_to_1t = true;
  const char* simd_target = "scalar";  // dispatch target the run executed on
};

ParallelismOptions Par(int threads) {
  ParallelismOptions par;
  par.threads = threads;
  par.min_parallel_cells = 1;
  return par;
}

// Exact fingerprint over the nonzero entries (position + bit pattern) of
// one distribution row; any single-bit difference between two runs of the
// same kernel changes the per-tuple fingerprint.
std::uint64_t RowFingerprint(std::span<const double> row) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull + row.size();
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i] == 0.0) continue;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &row[i], sizeof(bits));
    h ^= i + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

long long CountNonzero(std::span<const double> row) {
  long long cells = 0;
  for (double v : row) cells += v != 0.0 ? 1 : 0;
  return cells;
}

// Receives output row `i` of one kernel run. Rows of distinct tuples may
// arrive concurrently; one tuple's row arrives once.
using RowSink = std::function<void(int i, std::span<const double> row)>;

const RowSink kDiscardRows = [](int, std::span<const double>) {};

// Per-tuple fingerprints and the emitted-cell total of one kernel run,
// gathered by an untimed pass of `sweep`.
struct RowDigest {
  std::vector<std::uint64_t> prints;
  long long cells = 0;
};

template <typename SweepFn>
RowDigest Digest(int n, const SweepFn& sweep) {
  RowDigest digest;
  digest.prints.assign(static_cast<size_t>(n), 0);
  std::vector<long long> row_cells(static_cast<size_t>(n), 0);
  sweep([&](int i, std::span<const double> row) {
    digest.prints[static_cast<size_t>(i)] = RowFingerprint(row);
    row_cells[static_cast<size_t>(i)] = CountNonzero(row);
  });
  for (long long c : row_cells) digest.cells += c;
  return digest;
}

// One scaling series: `sweep(threads, sink)` runs the kernel once and
// hands every output row to `sink`. The timed pass discards the rows; a
// second pass at the same thread count fingerprints them.
template <typename SweepFn>
std::vector<Measurement> ScalingSeries(const std::string& kernel, int n,
                                       const SweepFn& sweep) {
  std::vector<Measurement> series;
  std::vector<std::uint64_t> baseline;
  for (int threads : kThreadCounts) {
    Timer timer;
    sweep(threads, kDiscardRows);
    const double wall_ms = timer.ElapsedMs();
    const RowDigest digest = Digest(
        n, [&](const RowSink& sink) { sweep(threads, sink); });
    Measurement m;
    m.kernel = kernel;
    m.n = n;
    m.threads = threads;
    m.wall_ms = wall_ms;
    m.dp_cells = digest.cells;
    m.cells_per_s =
        m.wall_ms > 0.0 ? digest.cells / (m.wall_ms / 1000.0) : 0.0;
    if (threads == 1) baseline = digest.prints;
    m.identical_to_1t = digest.prints == baseline;
    m.speedup_vs_1t =
        m.wall_ms > 0.0 ? series.empty() ? 1.0 : series[0].wall_ms / m.wall_ms
                        : 0.0;
    m.simd_target = ToString(ActiveSimdTarget());
    series.push_back(m);
  }
  return series;
}

// Hands a materialized rank matrix to `sink` row by row.
void EmitRows(const std::vector<std::vector<double>>& rows,
              const RowSink& sink) {
  for (size_t i = 0; i < rows.size(); ++i) {
    sink(static_cast<int>(i), rows[i]);
  }
}

// Dispatch targets compiled into this binary and usable on this host,
// scalar first (the speedup reference).
std::vector<SimdTarget> AvailableTargets() {
  std::vector<SimdTarget> targets;
  for (SimdTarget t : {SimdTarget::kScalar, SimdTarget::kNeon,
                       SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (SimdTargetAvailable(t)) targets.push_back(t);
  }
  return targets;
}

// One single-threaded run of `sweep(sink)` per available dispatch target;
// the speedup column is relative to the scalar run. Pins the process-wide
// target for the duration of each run and restores the entry state. The
// timed runs discard their rows; the emitted cells are counted once, in an
// untimed run on the entry target.
template <typename SweepFn>
std::vector<Measurement> DispatchSeries(const std::string& kernel, int n,
                                        const SweepFn& sweep) {
  const SimdTarget entry = ActiveSimdTarget();
  const long long cells = Digest(n, sweep).cells;
  std::vector<Measurement> series;
  for (SimdTarget target : AvailableTargets()) {
    SetSimdTarget(target);
    Timer timer;
    sweep(kDiscardRows);
    Measurement m;
    m.kernel = kernel;
    m.n = n;
    m.threads = 1;
    m.wall_ms = timer.ElapsedMs();
    m.dp_cells = cells;
    m.cells_per_s = m.wall_ms > 0.0 ? cells / (m.wall_ms / 1000.0) : 0.0;
    m.speedup_vs_1t =
        m.wall_ms > 0.0 ? series.empty() ? 1.0 : series[0].wall_ms / m.wall_ms
                        : 0.0;
    m.simd_target = ToString(target);
    series.push_back(m);
  }
  SetSimdTarget(entry);
  return series;
}

std::vector<Measurement> TupleRankDistributionDispatchSeries(int n) {
  TupleGenConfig config;
  config.num_tuples = n;
  config.seed = 11;
  const TupleRelation rel = GenerateTupleRelation(config);
  const auto prepared = QueryEngine::Prepare(rel);
  return DispatchSeries(
      "tuple_rank_distribution_simd", n, [&](const RowSink& sink) {
        KernelReport report;
        ForEachTupleRankDistribution(
            rel, prepared->rank_order(), TiePolicy::kBreakByIndex, Par(1),
            &report, [&](int /*chunk*/, int i, std::span<const double> dist) {
              sink(i, dist);
            });
      });
}

std::vector<Measurement> AttrRankDistributionDispatchSeries(int n) {
  AttrGenConfig config;
  config.num_tuples = n;
  config.seed = 17;
  const AttrRelation rel = GenerateAttrRelation(config);
  const std::vector<internal::SortedPdf> pdfs = BuildSortedPdfs(rel);
  return DispatchSeries(
      "attr_rank_distribution_simd", n, [&](const RowSink& sink) {
        KernelReport report;
        EmitRows(AttrRankDistributions(rel, pdfs, TiePolicy::kBreakByIndex,
                                       Par(1), &report),
                 sink);
      });
}

std::vector<Measurement> TupleRankDistributionSeries(int n) {
  TupleGenConfig config;
  config.num_tuples = n;
  config.seed = 11;
  const TupleRelation rel = GenerateTupleRelation(config);
  const auto prepared = QueryEngine::Prepare(rel);
  return ScalingSeries(
      "tuple_rank_distribution", n, [&](int threads, const RowSink& sink) {
        KernelReport report;
        ForEachTupleRankDistribution(
            rel, prepared->rank_order(), TiePolicy::kBreakByIndex,
            Par(threads), &report,
            [&](int /*chunk*/, int i, std::span<const double> dist) {
              sink(i, dist);
            });
      });
}

std::vector<Measurement> TuplePositionalSeries(int n) {
  TupleGenConfig config;
  config.num_tuples = n;
  config.seed = 13;
  const TupleRelation rel = GenerateTupleRelation(config);
  const auto prepared = QueryEngine::Prepare(rel);
  return ScalingSeries(
      "tuple_positional", n, [&](int threads, const RowSink& sink) {
        KernelReport report;
        ForEachTuplePositionalDistribution(
            rel, prepared->rank_order(), TiePolicy::kBreakByIndex,
            Par(threads), &report,
            [&](int /*chunk*/, int i, std::span<const double> row) {
              sink(i, row);
            });
      });
}

std::vector<Measurement> AttrRankDistributionSeries(int n) {
  AttrGenConfig config;
  config.num_tuples = n;
  config.seed = 17;
  const AttrRelation rel = GenerateAttrRelation(config);
  const std::vector<internal::SortedPdf> pdfs = BuildSortedPdfs(rel);
  return ScalingSeries(
      "attr_rank_distribution", n, [&](int threads, const RowSink& sink) {
        KernelReport report;
        EmitRows(AttrRankDistributions(rel, pdfs, TiePolicy::kBreakByIndex,
                                       Par(threads), &report),
                 sink);
      });
}

void PrintSeries(const std::vector<Measurement>& series) {
  Table table("P1: " + series[0].kernel +
                  " (N = " + FormatInt(series[0].n) + ")",
              {"threads", "wall ms", "speedup", "cells/s", "identical"});
  for (const Measurement& m : series) {
    table.AddRow({FormatInt(m.threads), FormatDouble(m.wall_ms, 2),
                  FormatDouble(m.speedup_vs_1t, 2),
                  FormatDouble(m.cells_per_s / 1e6, 2) + "M",
                  m.identical_to_1t ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\n");
}

void PrintDispatchSeries(const std::vector<Measurement>& series) {
  Table table("P1: " + series[0].kernel +
                  " (N = " + FormatInt(series[0].n) + ", 1 thread)",
              {"target", "wall ms", "speedup vs scalar", "cells/s"});
  for (const Measurement& m : series) {
    table.AddRow({m.simd_target, FormatDouble(m.wall_ms, 2),
                  FormatDouble(m.speedup_vs_1t, 2),
                  FormatDouble(m.cells_per_s / 1e6, 2) + "M"});
  }
  table.Print();
  std::printf("\n");
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<Measurement>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"harness\": \"bench_parallel_kernels\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", ResolveThreads(0));
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Measurement& m = all[i];
    std::fprintf(
        f,
        "    {\"kernel\": \"%s\", \"n\": %d, \"threads\": %d, "
        "\"simd_target\": \"%s\", "
        "\"wall_ms\": %.3f, \"speedup_vs_1t\": %.3f, \"dp_cells\": %lld, "
        "\"dp_cells_per_s\": %.0f, \"identical_to_1t\": %s}%s\n",
        m.kernel.c_str(), m.n, m.threads, m.simd_target, m.wall_ms,
        m.speedup_vs_1t, m.dp_cells, m.cells_per_s,
        m.identical_to_1t ? "true" : "false",
        i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int RunHarness(bool smoke, const std::string& json_path) {
  const int tuple_n = smoke ? 20000 : 100000;
  const int attr_n = smoke ? 300 : 600;

  std::vector<Measurement> all;
  for (const auto& series :
       {TupleRankDistributionSeries(tuple_n), TuplePositionalSeries(tuple_n),
        AttrRankDistributionSeries(attr_n)}) {
    PrintSeries(series);
    all.insert(all.end(), series.begin(), series.end());
  }
  for (const auto& series : {TupleRankDistributionDispatchSeries(tuple_n),
                             AttrRankDistributionDispatchSeries(attr_n)}) {
    PrintDispatchSeries(series);
    all.insert(all.end(), series.begin(), series.end());
  }

  bool identical = true;
  double tuple_dp_best_speedup = 0.0;
  for (const Measurement& m : all) {
    identical = identical && m.identical_to_1t;
    if (m.kernel == "tuple_rank_distribution") {
      tuple_dp_best_speedup = std::max(tuple_dp_best_speedup, m.speedup_vs_1t);
    }
  }
  std::printf("bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO");
  std::printf(
      "tuple rank-distribution best speedup: %.2fx on %d hardware threads "
      "(target: >= 3x on 8 cores)\n",
      tuple_dp_best_speedup, ResolveThreads(0));

  if (!json_path.empty()) WriteJson(json_path, smoke, all);
  return identical ? 0 : 1;  // identity failures fail the harness
}

}  // namespace
}  // namespace urank

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  return urank::RunHarness(smoke, json_path);
}
