// Experiment E5: tuple-level expected ranks — exact T-ERank (O(N log N))
// vs the brute-force O(N²) baseline, runtime vs N, with and without
// multi-tuple exclusion rules.
//
// Paper shape: T-ERank is dominated by the sort and scales near-linearly;
// rules have negligible effect on its cost; BFS is quadratic.

#include <benchmark/benchmark.h>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_tuple.h"
#include "gen/tuple_gen.h"

namespace urank {
namespace {

TupleRelation MakeRelation(int n, double multi_rule_fraction) {
  TupleGenConfig config;
  config.num_tuples = n;
  config.multi_rule_fraction = multi_rule_fraction;
  config.max_rule_size = 3;
  config.seed = 42;
  return GenerateTupleRelation(config);
}

void BM_TERank_Independent(benchmark::State& state) {
  TupleRelation rel = MakeRelation(static_cast<int>(state.range(0)), 0.0);
  for (auto _ : state) {
    const PreparedTupleRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(TupleExpectedRanks(prepared));
  }
}
BENCHMARK(BM_TERank_Independent)
    ->RangeMultiplier(4)
    ->Range(1000, 1024000)
    ->Unit(benchmark::kMillisecond);

void BM_TERank_WithRules(benchmark::State& state) {
  TupleRelation rel = MakeRelation(static_cast<int>(state.range(0)), 0.4);
  for (auto _ : state) {
    const PreparedTupleRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(TupleExpectedRanks(prepared));
  }
}
BENCHMARK(BM_TERank_WithRules)
    ->RangeMultiplier(4)
    ->Range(1000, 1024000)
    ->Unit(benchmark::kMillisecond);

void BM_TupleBruteForce(benchmark::State& state) {
  TupleRelation rel = MakeRelation(static_cast<int>(state.range(0)), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TupleExpectedRanksBruteForce(rel));
  }
}
BENCHMARK(BM_TupleBruteForce)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->Unit(benchmark::kMillisecond);

// Full top-k query including selection.
void BM_TERankTopK(benchmark::State& state) {
  TupleRelation rel = MakeRelation(static_cast<int>(state.range(0)), 0.4);
  for (auto _ : state) {
    const PreparedTupleRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(TupleExpectedRankTopK(prepared, 50));
  }
}
BENCHMARK(BM_TERankTopK)
    ->RangeMultiplier(4)
    ->Range(1000, 1024000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace urank
