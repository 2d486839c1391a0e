// Experiment E15 (extension): early-terminating PT-k — the scan-depth
// behaviour of the threshold algorithm the paper cites as Hua et al. [23].
//
// Expected shape: higher thresholds and larger per-tuple probabilities
// stop the scan sooner (the unseen-tuple bound Pr[#appearing seen <= k]
// collapses once ~k units of probability mass are behind us). Each query
// runs through QueryEngine::Run with QueryRequest::prune and is checked
// against the unpruned PT-k answer (ids and probabilities); any
// difference makes the harness exit non-zero. "accessed" is
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

TupleRelation MakeRelation(double prob_lo, double prob_hi) {
  TupleGenConfig config;
  config.num_tuples = kN;
  config.prob_lo = prob_lo;
  config.prob_hi = prob_hi;
  config.multi_rule_fraction = 0.3;
  config.max_rule_size = 3;
  config.seed = 37;
  return GenerateTupleRelation(config);
}

QueryRequest PTkRequest(int k, double threshold) {
  QueryRequest request;
  request.options.semantics = RankingSemantics::kPTk;
  request.options.k = k;
  request.options.threshold = threshold;
  return request;
}

bool RunExperiment() {
  bool identical = true;
  const TupleRelation rel = MakeRelation(0.2, 1.0);
  const QueryEngine pruned(rel);
  const QueryEngine full(rel);

  Table by_threshold(
      "E15a: PT-k pruned scan depth vs threshold (N = 20000, k = 20, "
      "p in [0.2, 1])",
      {"threshold", "accessed", "fraction", "answer size", "time (ms)"});
  for (double threshold : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const PrunedRun run = RunPrunedChecked(
        pruned, full, PTkRequest(20, threshold), 5, &identical);
    const long long accessed = run.result.stats.tuples_scanned;
    by_threshold.AddRow(
        {FormatDouble(threshold, 1), FormatInt(accessed),
         FormatDouble(static_cast<double>(accessed) / kN, 4),
         FormatInt(static_cast<int64_t>(run.result.answer.ids.size())),
         FormatDouble(run.ms, 3)});
  }
  by_threshold.Print();
  std::printf("\n");

  Table by_k("E15b: PT-k pruned scan depth vs k (threshold = 0.5)",
             {"k", "accessed", "answer size", "time (ms)"});
  for (int k : {5, 10, 20, 50, 100}) {
    const PrunedRun run =
        RunPrunedChecked(pruned, full, PTkRequest(k, 0.5), 5, &identical);
    by_k.AddRow({FormatInt(k), FormatInt(run.result.stats.tuples_scanned),
                 FormatInt(static_cast<int64_t>(run.result.answer.ids.size())),
                 FormatDouble(run.ms, 3)});
  }
  by_k.Print();
  std::printf("\n");

  Table by_prob(
      "E15c: PT-k pruned scan depth vs probability range (k = 20, "
      "threshold = 0.5)",
      {"p range", "accessed", "fraction"});
  const std::vector<std::pair<double, double>> ranges = {
      {0.05, 0.2}, {0.2, 0.5}, {0.5, 0.8}, {0.8, 1.0}};
  for (const auto& [lo, hi] : ranges) {
    const TupleRelation r = MakeRelation(lo, hi);
    const PrunedRun run = RunPrunedChecked(
        QueryEngine(r), QueryEngine(r), PTkRequest(20, 0.5), 1, &identical);
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
