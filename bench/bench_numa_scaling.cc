// Experiment N1: NUMA-aware shard-parallel scaling (BENCH_7).
//
// Measures the score-range-sharded kernels under all three placement
// policies (flat, node_local, spread), a shard-count sweep, and the
// N=1M series:
//
//   * sharded T-ERank (expected rank) per placement at 1/2/4/8 threads,
//     at N=100k and N=1M;
//   * the same kernel at a fixed thread count across shard caps
//     {auto, 4, 16} — the shard grid is a pure function of the data, so
//     every cap must produce identical bytes;
//   * the chunked median-rank DP (φ = 0.5 quantile) per placement at
//     N=1M, riding the prepared relation's sweep-entry table. The
//     relation bounds the Poisson-binomial support with a few hundred
//     wide exclusion rules so the N=1M DP stays minutes-free.
//
// Every run is fingerprinted against a serial one-thread reference (the
// single-shard T-ERank sweep, the kernel-level median DP); any bit
// difference fails the harness. Speedup columns are only meaningful on
// multi-core (and multi-node) hosts — the identical column must read
// "yes" everywhere, including single-core CI.
//
// Flags:
//   --smoke        shrink the relations for CI smoke runs
//   --json=PATH    machine-readable results for tools/bench_runner
//                  (includes a "metrics" registry snapshot)

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/expected_rank_tuple.h"
#include "core/internal/shard_plan.h"
#include "core/quantile_rank.h"
#include "core/rank_distribution_tuple.h"
#include "model/tuple_model.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/topology.h"

namespace urank {
namespace {

const int kThreadCounts[] = {1, 2, 4, 8};
const PlacementPolicy kPolicies[] = {PlacementPolicy::kFlat,
                                     PlacementPolicy::kNodeLocal,
                                     PlacementPolicy::kSpread};

struct Measurement {
  std::string kernel;
  int n = 0;
  int threads = 0;
  double wall_ms = 0.0;
  double speedup_vs_1t = 0.0;  // vs this series' first (1-thread) run
  bool identical_to_1t = true;  // vs the serial facade baseline
  int nodes_used = 1;
  const char* simd_target = "scalar";
};

ParallelismOptions Par(int threads, PlacementPolicy placement) {
  ParallelismOptions par;
  par.threads = threads;
  par.min_parallel_cells = 1;
  par.placement = placement;
  return par;
}

// A relation shaped for the N=1M series: long-ish runs of tied scores
// straddling naive shard boundaries, a bounded number of wide exclusion
// rules (so the rank-distribution DP's Poisson-binomial support stays a
// few hundred regardless of N), plus high-probability singletons
// including certain tuples.
TupleRelation MakeWideRuleRelation(int n, int num_rules, int num_singletons) {
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  std::vector<std::vector<int>> rules(static_cast<size_t>(num_rules));
  for (int i = 0; i < n; ++i) {
    TLTuple& t = tuples[static_cast<size_t>(i)];
    t.id = i;
    t.score = static_cast<double>((i * 7919) % 9973);
    if (i < num_singletons) {
      t.prob = (i % 10 == 0) ? 1.0 : 0.25 + 0.7 * ((i * 13) % 101) / 101.0;
    } else {
      rules[static_cast<size_t>(i % num_rules)].push_back(i);
      t.prob = 0.0;  // filled below once member counts are known
    }
  }
  for (const std::vector<int>& members : rules) {
    const double p = 0.95 / static_cast<double>(members.size());
    for (int i : members) tuples[static_cast<size_t>(i)].prob = p;
  }
  return TupleRelation(std::move(tuples), std::move(rules));
}

std::uint64_t VectorFingerprint(const std::vector<double>& values) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull + values.size();
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

std::uint64_t VectorFingerprint(const std::vector<int>& values) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull + values.size();
  for (int v : values) {
    h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

Measurement Measure(const std::string& kernel, int n, int threads,
                    double base_wall_ms, std::uint64_t baseline_print,
                    std::uint64_t print, double wall_ms, int nodes_used) {
  Measurement m;
  m.kernel = kernel;
  m.n = n;
  m.threads = threads;
  m.wall_ms = wall_ms;
  m.speedup_vs_1t =
      wall_ms > 0.0 && base_wall_ms > 0.0 ? base_wall_ms / wall_ms : 1.0;
  m.identical_to_1t = print == baseline_print;
  m.nodes_used = nodes_used;
  m.simd_target = ToString(ActiveSimdTarget());
  return m;
}

// The serial T-ERank sweep: one shard entered from zero state, one thread.
std::uint64_t SerialExpectedRankPrint(const TupleRelation& rel,
                                      const std::vector<int>& rank_order,
                                      TiePolicy ties) {
  const internal::TupleShardPlan single = internal::BuildTupleShardPlan(
      rel, rank_order, /*first_touch=*/false, /*max_shards=*/1);
  return VectorFingerprint(
      TupleExpectedRanksSharded(rel, single, ties, ParallelismOptions{}));
}

// Sharded expected-rank series: one row per (placement, threads), all
// fingerprint-checked against the serial sweep.
std::vector<Measurement> ExpectedRankPlacementSeries(const TupleRelation& rel,
                                                     int n) {
  const TiePolicy ties = TiePolicy::kBreakByIndex;
  const auto prepared = QueryEngine::Prepare(rel);
  const std::uint64_t baseline =
      SerialExpectedRankPrint(rel, prepared->rank_order(), ties);
  const internal::TupleShardPlan& plan = prepared->shard_plan();

  std::vector<Measurement> series;
  for (PlacementPolicy placement : kPolicies) {
    double base_wall_ms = 0.0;
    for (int threads : kThreadCounts) {
      KernelReport report;
      Timer timer;
      const std::vector<double> ranks = TupleExpectedRanksSharded(
          rel, plan, ties, Par(threads, placement), &report);
      const double wall_ms = timer.ElapsedMs();
      if (threads == 1) base_wall_ms = wall_ms;
      series.push_back(Measure(
          std::string("numa_expected_rank_") + ToString(placement), n, threads,
          base_wall_ms, baseline, VectorFingerprint(ranks), wall_ms,
          report.nodes_used));
    }
  }
  return series;
}

// Shard-cap sweep at a fixed thread count: auto (the deterministic
// default), coarse (4) and fine (16) grids, identical bytes for each.
std::vector<Measurement> ExpectedRankShardCountSeries(const TupleRelation& rel,
                                                      int n) {
  const TiePolicy ties = TiePolicy::kBreakByIndex;
  const auto prepared = QueryEngine::Prepare(rel);
  const std::uint64_t baseline =
      SerialExpectedRankPrint(rel, prepared->rank_order(), ties);

  std::vector<Measurement> series;
  double base_wall_ms = 0.0;
  for (int max_shards : {0, 4, 16}) {
    const internal::TupleShardPlan plan = internal::BuildTupleShardPlan(
        rel, prepared->rank_order(), /*first_touch=*/false, max_shards);
    KernelReport report;
    Timer timer;
    const std::vector<double> ranks = TupleExpectedRanksSharded(
        rel, plan, ties, Par(4, PlacementPolicy::kSpread), &report);
    const double wall_ms = timer.ElapsedMs();
    if (base_wall_ms == 0.0) base_wall_ms = wall_ms;
    const std::string label =
        max_shards == 0 ? "auto" : std::to_string(max_shards);
    series.push_back(Measure("numa_expected_rank_shards_" + label, n, 4,
                             base_wall_ms, baseline, VectorFingerprint(ranks),
                             wall_ms, report.nodes_used));
  }
  return series;
}

// Median-rank (φ = 0.5 quantile) series per placement: the chunked DP
// behind median/quantile ranks, entering each chunk from the prepared
// sweep-entry table. Fresh prepared state per run — the quantile vector
// memoizes, and a cache hit would measure a lookup.
std::vector<Measurement> MedianRankPlacementSeries(const TupleRelation& rel,
                                                   int n) {
  const TiePolicy ties = TiePolicy::kBreakByIndex;
  // Serial reference: the kernel-level sweep (its own sort, no entry
  // table), one thread.
  std::vector<int> serial(static_cast<size_t>(rel.size()), 0);
  ForEachTupleRankDistribution(
      rel, ties, [&](int i, std::span<const double> dist) {
        serial[static_cast<size_t>(i)] = QuantileFromPmf(dist, 0.5);
      });
  const std::uint64_t baseline = VectorFingerprint(serial);

  std::vector<Measurement> series;
  for (PlacementPolicy placement : kPolicies) {
    double base_wall_ms = 0.0;
    for (int threads : {1, 4}) {
      const auto prepared = QueryEngine::Prepare(rel);
      KernelReport report;
      Timer timer;
      const std::vector<int> ranks = TupleQuantileRanks(
          *prepared, 0.5, ties, Par(threads, placement), &report);
      const double wall_ms = timer.ElapsedMs();
      if (threads == 1) base_wall_ms = wall_ms;
      series.push_back(Measure(
          std::string("numa_median_rank_") + ToString(placement), n, threads,
          base_wall_ms, baseline, VectorFingerprint(ranks), wall_ms,
          report.nodes_used));
    }
  }
  return series;
}

void PrintSeries(const std::string& title,
                 const std::vector<Measurement>& series) {
  Table table("N1: " + title + " (N = " + FormatInt(series[0].n) + ")",
              {"kernel", "threads", "wall ms", "speedup", "nodes",
               "identical"});
  for (const Measurement& m : series) {
    table.AddRow({m.kernel, FormatInt(m.threads), FormatDouble(m.wall_ms, 2),
                  FormatDouble(m.speedup_vs_1t, 2), FormatInt(m.nodes_used),
                  m.identical_to_1t ? "yes" : "NO"});
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
  std::fprintf(f, "{\n  \"harness\": \"bench_numa_scaling\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", ResolveThreads(0));
  std::fprintf(f, "  \"planning_topology\": \"%s\",\n",
               GlobalTopology().ToSpec().c_str());
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Measurement& m = all[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"n\": %d, \"threads\": %d, "
                 "\"simd_target\": \"%s\", \"wall_ms\": %.3f, "
                 "\"speedup_vs_1t\": %.3f, \"nodes_used\": %d, "
                 "\"identical_to_1t\": %s}%s\n",
                 m.kernel.c_str(), m.n, m.threads, m.simd_target, m.wall_ms,
                 m.speedup_vs_1t, m.nodes_used,
                 m.identical_to_1t ? "true" : "false",
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"metrics\": %s\n",
               metrics::Registry::Global().RenderJsonSnapshot().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int RunHarness(bool smoke, const std::string& json_path) {
  const int small_n = smoke ? 20000 : 100000;
  const int big_n = smoke ? 50000 : 1000000;
  const int num_rules = smoke ? 64 : 256;
  const int num_singletons = 200;

  const TupleRelation small_rel =
      MakeWideRuleRelation(small_n, num_rules, num_singletons);
  const TupleRelation big_rel =
      MakeWideRuleRelation(big_n, num_rules, num_singletons);

  std::vector<Measurement> all;
  {
    const auto series = ExpectedRankPlacementSeries(small_rel, small_n);
    PrintSeries("sharded expected rank, per placement", series);
    all.insert(all.end(), series.begin(), series.end());
  }
  {
    const auto series = ExpectedRankPlacementSeries(big_rel, big_n);
    PrintSeries("sharded expected rank, per placement", series);
    all.insert(all.end(), series.begin(), series.end());
  }
  {
    const auto series = ExpectedRankShardCountSeries(small_rel, small_n);
    PrintSeries("sharded expected rank, shard-cap sweep", series);
    all.insert(all.end(), series.begin(), series.end());
  }
  {
    const auto series = MedianRankPlacementSeries(big_rel, big_n);
    PrintSeries("median rank, per placement", series);
    all.insert(all.end(), series.begin(), series.end());
  }

  bool identical = true;
  for (const Measurement& m : all) identical = identical && m.identical_to_1t;
  std::printf("bit-identical to the serial facade everywhere: %s\n",
              identical ? "yes" : "NO");
  std::printf("planning topology: %s (%d node(s))\n",
              GlobalTopology().ToSpec().c_str(), GlobalTopology().num_nodes());

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
