// Experiment E8: median/quantile ranks in the attribute-level model — the
// O(s N³) dynamic program's runtime vs N and vs the pdf size s.
//
// Paper shape: cubic growth in N, linear in s; practical to N in the low
// thousands, far costlier than the O(N log N) expected rank.

#include <benchmark/benchmark.h>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_attr.h"
#include "core/quantile_rank.h"
#include "core/rank_distribution_attr.h"
#include "gen/attr_gen.h"

namespace urank {
namespace {

AttrRelation MakeRelation(int n, int s) {
  AttrGenConfig config;
  config.num_tuples = n;
  config.pdf_size = s;
  config.seed = 5;
  return GenerateAttrRelation(config);
}

void BM_AttrMedianRank(benchmark::State& state) {
  AttrRelation rel = MakeRelation(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    const PreparedAttrRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(AttrQuantileRanks(prepared, 0.5));
  }
}
BENCHMARK(BM_AttrMedianRank)
    ->RangeMultiplier(2)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_AttrQuantileRank_PdfSize(benchmark::State& state) {
  AttrRelation rel = MakeRelation(256, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const PreparedAttrRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(AttrQuantileRanks(prepared, 0.75));
  }
}
BENCHMARK(BM_AttrQuantileRank_PdfSize)
    ->DenseRange(1, 9, 2)
    ->Unit(benchmark::kMillisecond);

// Multi-threaded rank-distribution DP on the same instances: the per-tuple
// DPs are independent, so the cubic wall parallelizes cleanly.
void BM_AttrRankDistributions_Parallel(benchmark::State& state) {
  AttrRelation rel = MakeRelation(512, 5);
  const std::vector<internal::SortedPdf> pdfs = BuildSortedPdfs(rel);
  ParallelismOptions par;
  par.threads = static_cast<int>(state.range(0));
  par.min_parallel_cells = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AttrRankDistributions(
        rel, pdfs, TiePolicy::kBreakByIndex, par, nullptr));
  }
}
BENCHMARK(BM_AttrRankDistributions_Parallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Reference point: the expected rank on the same instances, to reproduce
// the paper's expected-vs-median cost gap.
void BM_AttrExpectedRank_SameInstances(benchmark::State& state) {
  AttrRelation rel = MakeRelation(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    const PreparedAttrRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(AttrExpectedRanks(prepared));
  }
}
BENCHMARK(BM_AttrExpectedRank_SameInstances)
    ->RangeMultiplier(2)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace urank
