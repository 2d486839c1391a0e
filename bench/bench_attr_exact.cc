// Experiment E1: attribute-level expected ranks — exact A-ERank
// (O(N log N)) vs the brute-force O(N²) baseline, runtime vs N, for
// uniform and Zipfian score distributions.
//
// Paper shape: A-ERank grows near-linearly and beats BFS by orders of
// magnitude at large N; the score distribution barely matters.

#include <benchmark/benchmark.h>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_attr.h"
#include "gen/attr_gen.h"

namespace urank {
namespace {

AttrRelation MakeRelation(int n, ScoreDistribution dist) {
  AttrGenConfig config;
  config.num_tuples = n;
  config.pdf_size = 5;
  config.score_dist = dist;
  config.seed = 42;
  return GenerateAttrRelation(config);
}

void BM_AERank_Uniform(benchmark::State& state) {
  AttrRelation rel =
      MakeRelation(static_cast<int>(state.range(0)), ScoreDistribution::kUniform);
  for (auto _ : state) {
    const PreparedAttrRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(AttrExpectedRanks(prepared));
  }
}
BENCHMARK(BM_AERank_Uniform)
    ->RangeMultiplier(4)
    ->Range(1000, 256000)
    ->Unit(benchmark::kMillisecond);

void BM_AERank_Zipf(benchmark::State& state) {
  AttrRelation rel =
      MakeRelation(static_cast<int>(state.range(0)), ScoreDistribution::kZipf);
  for (auto _ : state) {
    const PreparedAttrRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(AttrExpectedRanks(prepared));
  }
}
BENCHMARK(BM_AERank_Zipf)
    ->RangeMultiplier(4)
    ->Range(1000, 256000)
    ->Unit(benchmark::kMillisecond);

void BM_BruteForce_Uniform(benchmark::State& state) {
  AttrRelation rel =
      MakeRelation(static_cast<int>(state.range(0)), ScoreDistribution::kUniform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AttrExpectedRanksBruteForce(rel));
  }
}
BENCHMARK(BM_BruteForce_Uniform)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->Unit(benchmark::kMillisecond);

// Full query including the top-k selection, the paper's reported
// operation.
void BM_AERankTopK(benchmark::State& state) {
  AttrRelation rel =
      MakeRelation(static_cast<int>(state.range(0)), ScoreDistribution::kUniform);
  for (auto _ : state) {
    const PreparedAttrRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(AttrExpectedRankTopK(prepared, 50));
  }
}
BENCHMARK(BM_AERankTopK)
    ->RangeMultiplier(4)
    ->Range(1000, 256000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace urank
