// Experiment E9: median/quantile ranks in the tuple-level model — runtime
// vs N and vs the rule structure (which sets M, the number of rules).
//
// Paper shape: the DP is O(N M²) worst case; with the incremental
// Poisson-binomial updates it behaves like O(N·M) on typical inputs, so
// runtime grows roughly quadratically in N when M ∝ N. Far costlier than
// the O(N log N) expected rank, but practical to tens of thousands.

#include <benchmark/benchmark.h>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "gen/tuple_gen.h"

namespace urank {
namespace {

TupleRelation MakeRelation(int n, double multi_rule_fraction) {
  TupleGenConfig config;
  config.num_tuples = n;
  config.multi_rule_fraction = multi_rule_fraction;
  config.max_rule_size = 3;
  config.seed = 5;
  return GenerateTupleRelation(config);
}

void BM_TupleMedianRank(benchmark::State& state) {
  TupleRelation rel = MakeRelation(static_cast<int>(state.range(0)), 0.3);
  for (auto _ : state) {
    const PreparedTupleRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(TupleQuantileRanks(prepared, 0.5));
  }
}
BENCHMARK(BM_TupleMedianRank)
    ->RangeMultiplier(2)
    ->Range(256, 8192)
    ->Unit(benchmark::kMillisecond);

// Denser rules shrink M at fixed N: runtime scales with the rule count.
void BM_TupleMedianRank_RuleFraction(benchmark::State& state) {
  const double fraction = static_cast<double>(state.range(0)) / 10.0;
  TupleRelation rel = MakeRelation(4096, fraction);
  state.counters["rules"] = rel.num_rules();
  for (auto _ : state) {
    const PreparedTupleRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(TupleQuantileRanks(prepared, 0.5));
  }
}
BENCHMARK(BM_TupleMedianRank_RuleFraction)
    ->DenseRange(0, 8, 2)
    ->Unit(benchmark::kMillisecond);

// Reference point: expected ranks on the same instances.
void BM_TupleExpectedRank_SameInstances(benchmark::State& state) {
  TupleRelation rel = MakeRelation(static_cast<int>(state.range(0)), 0.3);
  for (auto _ : state) {
    const PreparedTupleRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(TupleExpectedRanks(prepared));
  }
}
BENCHMARK(BM_TupleExpectedRank_SameInstances)
    ->RangeMultiplier(2)
    ->Range(256, 8192)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace urank
