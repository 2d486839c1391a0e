// Experiment E6: T-ERank-Prune — tuples accessed (out of N) as a function
// of k, under independent / positively / negatively correlated
// (score, probability) and under different probability ranges.
//
// Paper shape: the scan stops once the seen probability mass exceeds the
// k-th best rank by 1, so high probabilities (or positive correlation,
// which concentrates mass at the top of the score order) prune hardest;
// low probabilities and anti-correlation force deeper scans. The answer
// is always exact: each query runs through QueryEngine::Run with
// QueryRequest::prune, is checked against the unpruned T-ERank answer,
// and any difference makes the harness exit non-zero. "accessed" is
// QueryStats::tuples_scanned; preparation is outside the timer.

#include <cstdio>
#include <utility>
#include <vector>

#include "core/engine/query_engine.h"
#include "gen/tuple_gen.h"
#include "pruned_run.h"
#include "util/table.h"

namespace urank {
namespace {

constexpr int kN = 20000;

TupleRelation MakeRelation(Correlation correlation, double prob_lo,
                           double prob_hi) {
  TupleGenConfig config;
  config.num_tuples = kN;
  config.correlation = correlation;
  config.prob_lo = prob_lo;
  config.prob_hi = prob_hi;
  config.multi_rule_fraction = 0.3;
  config.max_rule_size = 3;
  config.seed = 17;
  return GenerateTupleRelation(config);
}

// T-ERank under the paper's rank definition (Definition 6).
QueryRequest ExpectedRankRequest(int k) {
  QueryRequest request;
  request.options.semantics = RankingSemantics::kExpectedRank;
  request.options.k = k;
  request.options.ties = TiePolicy::kStrictGreater;
  return request;
}

bool RunExperiment() {
  const std::vector<int> ks = {10, 20, 50, 100};
  bool identical = true;

  Table by_corr(
      "E6a: T-ERank-Prune tuples accessed vs k and correlation "
      "(N = 20000, p in [0.2, 1])",
      {"correlation", "k", "accessed", "fraction", "time (ms)"});
  for (Correlation corr : {Correlation::kIndependent, Correlation::kPositive,
                           Correlation::kNegative}) {
    const TupleRelation rel = MakeRelation(corr, 0.2, 1.0);
    const QueryEngine pruned(rel);
    const QueryEngine full(rel);
    for (int k : ks) {
      const PrunedRun run =
          RunPrunedChecked(pruned, full, ExpectedRankRequest(k), 5,
                           &identical);
      const long long accessed = run.result.stats.tuples_scanned;
      by_corr.AddRow({ToString(corr), FormatInt(k), FormatInt(accessed),
                      FormatDouble(static_cast<double>(accessed) / kN, 4),
                      FormatDouble(run.ms, 3)});
    }
  }
  by_corr.Print();
  std::printf("\n");

  Table by_prob(
      "E6b: T-ERank-Prune tuples accessed vs probability range "
      "(N = 20000, independent, k = 50)",
      {"p range", "accessed", "fraction"});
  const std::vector<std::pair<double, double>> ranges = {
      {0.05, 0.2}, {0.2, 0.5}, {0.5, 0.8}, {0.8, 1.0}};
  for (const auto& [lo, hi] : ranges) {
    const TupleRelation rel = MakeRelation(Correlation::kIndependent, lo, hi);
    const PrunedRun run =
        RunPrunedChecked(QueryEngine(rel), QueryEngine(rel),
                         ExpectedRankRequest(50), 1, &identical);
    const long long accessed = run.result.stats.tuples_scanned;
    char label[32];
    std::snprintf(label, sizeof(label), "[%.2f, %.2f]", lo, hi);
    by_prob.AddRow({label, FormatInt(accessed),
                    FormatDouble(static_cast<double>(accessed) / kN, 4)});
  }
  by_prob.Print();
  return identical;
}

}  // namespace
}  // namespace urank

int main() { return urank::RunExperiment() ? 0 : 1; }
