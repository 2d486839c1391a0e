// Experiment E13 (ablation): exact algorithms vs Monte Carlo sampling —
// the generic possible-worlds approach the paper contrasts against
// (Section 2). Reports the sampling error of the estimated expected ranks
// and top-k answers as a function of the sample budget, next to the exact
// algorithms' cost.
//
// Expected shape: error decays as 1/sqrt(samples); matching the exact
// top-k to high recall needs sample counts whose total cost far exceeds
// the exact O(N log N) algorithm — the reason the paper's dedicated
// algorithms matter.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_tuple.h"
#include "core/monte_carlo.h"
#include "gen/tuple_gen.h"
#include "util/rank_metrics.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

constexpr int kN = 5000;
constexpr int kK = 50;

void RunExperiment() {
  TupleGenConfig config;
  config.num_tuples = kN;
  config.multi_rule_fraction = 0.3;
  config.max_rule_size = 3;
  config.seed = 31;
  TupleRelation rel = GenerateTupleRelation(config);

  std::vector<double> exact;
  const double exact_ms = MedianTimeMs(
      5, [&] { exact = TupleExpectedRanks(PreparedTupleRelation(rel)); });
  const std::vector<int> exact_topk =
      IdsOf(TupleExpectedRankTopK(PreparedTupleRelation(rel), kK));

  Table table("E13: Monte Carlo vs exact T-ERank (N = 5000, k = 50)",
              {"samples", "time (ms)", "mean |err|", "max |err|",
               "top-k recall"});
  table.AddRow({"exact", FormatDouble(exact_ms, 2), "0", "0", "1.000"});

  for (int samples : {10, 100, 1000, 10000}) {
    Rng rng(99);
    std::vector<double> estimate;
    const double ms = MedianTimeMs(3, [&] {
      Rng fresh(99);
      estimate = TupleExpectedRanksMonteCarlo(rel, samples, fresh);
    });
    double mean_err = 0.0, max_err = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      const double err = std::fabs(estimate[i] - exact[i]);
      mean_err += err;
      max_err = std::max(max_err, err);
    }
    mean_err /= static_cast<double>(exact.size());
    std::vector<int> ids(static_cast<size_t>(rel.size()));
    for (int i = 0; i < rel.size(); ++i) ids[static_cast<size_t>(i)] = rel.tuple(i).id;
    const std::vector<int> mc_topk =
        IdsOf(TopKByStatistic(ids, estimate, kK));
    table.AddRow({FormatInt(samples), FormatDouble(ms, 2),
                  FormatDouble(mean_err, 3), FormatDouble(max_err, 3),
                  FormatDouble(RecallAgainst(mc_topk, exact_topk), 3)});
  }
  table.Print();
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
