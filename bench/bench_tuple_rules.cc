// Experiment E7: sensitivity of T-ERank to the exclusion-rule structure —
// runtime and ranking shift as the fraction of tuples in multi-tuple rules
// and the rule sizes grow.
//
// Paper shape: the exact algorithm's cost is O(N log N) regardless of the
// rules (each tuple belongs to exactly one rule and the per-rule
// aggregates are computed in one scan), while the produced ranking does
// change — correlations matter semantically, not computationally.

#include <cstdio>
#include <utility>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_tuple.h"
#include "gen/tuple_gen.h"
#include "util/rank_metrics.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

constexpr int kN = 200000;

TupleRelation MakeRelation(double fraction, int max_rule_size) {
  TupleGenConfig config;
  config.num_tuples = kN;
  config.multi_rule_fraction = fraction;
  config.max_rule_size = max_rule_size;
  config.seed = 23;
  return GenerateTupleRelation(config);
}

void RunExperiment() {
  Table table(
      "E7: T-ERank vs rule structure (N = 200000, k = 100)",
      {"multi-rule fraction", "max rule size", "#rules", "time (ms)",
       "top-k overlap vs independent"});

  // Baseline: fully independent tuples.
  TupleRelation independent = MakeRelation(0.0, 2);
  const std::vector<int> base_topk =
      IdsOf(TupleExpectedRankTopK(PreparedTupleRelation(independent), 100));

  const std::vector<std::pair<double, int>> configs = {
      {0.0, 2}, {0.2, 2}, {0.4, 3}, {0.6, 4}, {0.8, 6}};
  for (const auto& [fraction, rule_size] : configs) {
    TupleRelation rel = MakeRelation(fraction, rule_size);
    const double ms = MedianTimeMs(5, [&] {
      // A fresh preparation per run: the rank vector memoizes.
      const PreparedTupleRelation prepared(rel);
      volatile double sink = TupleExpectedRanks(prepared)[0];
      (void)sink;
    });
    const std::vector<int> topk =
        IdsOf(TupleExpectedRankTopK(PreparedTupleRelation(rel), 100));
    table.AddRow({FormatDouble(fraction, 1), FormatInt(rule_size),
                  FormatInt(rel.num_rules()), FormatDouble(ms, 2),
                  FormatDouble(TopKOverlap(topk, base_topk), 3)});
  }
  table.Print();
  std::printf(
      "\nRuntime stays flat as rules grow; only the ranking itself "
      "shifts.\n");
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
