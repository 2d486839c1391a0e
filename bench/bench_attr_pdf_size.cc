// Experiment E2: attribute-level exact computation — runtime vs the pdf
// size s at fixed N.
//
// Paper shape: A-ERank's cost grows linearly in s (the value universe has
// sN entries); the brute force grows roughly linearly in s as well but
// from a quadratically larger base.

#include <benchmark/benchmark.h>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_attr.h"
#include "gen/attr_gen.h"

namespace urank {
namespace {

AttrRelation MakeRelation(int n, int s) {
  AttrGenConfig config;
  config.num_tuples = n;
  config.pdf_size = s;
  config.seed = 7;
  return GenerateAttrRelation(config);
}

void BM_AERank_PdfSize(benchmark::State& state) {
  AttrRelation rel = MakeRelation(20000, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const PreparedAttrRelation prepared(rel);  // fresh: no memo hit
    benchmark::DoNotOptimize(AttrExpectedRanks(prepared));
  }
}
BENCHMARK(BM_AERank_PdfSize)
    ->DenseRange(1, 10, 1)
    ->Unit(benchmark::kMillisecond);

void BM_BruteForce_PdfSize(benchmark::State& state) {
  AttrRelation rel = MakeRelation(4000, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AttrExpectedRanksBruteForce(rel));
  }
}
BENCHMARK(BM_BruteForce_PdfSize)
    ->DenseRange(1, 10, 3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace urank
