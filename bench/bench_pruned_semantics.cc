// Experiment E16 (extension): scan depth of the early-terminating
// Global-Topk and U-kRanks evaluations (QueryRequest::prune over the
// prepared tuple sweep), versus the full O(N M²)-DP evaluation they
// replace.
//
// Expected shape: like PT-k (E15), both algorithms stop after seeing only
// about k units of probability mass; the full evaluation touches all N
// tuples and pays the rank-distribution DP. Every pruned answer is checked
// against the unpruned one (ids and statistics); any difference makes the
// harness exit non-zero. "accessed" is QueryStats::tuples_scanned;
// preparation is outside every timer.

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine/query_engine.h"
#include "gen/tuple_gen.h"
#include "pruned_run.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

constexpr int kN = 20000;

TupleRelation MakeRelation(uint64_t seed) {
  TupleGenConfig config;
  config.num_tuples = kN;
  config.prob_lo = 0.2;
  config.multi_rule_fraction = 0.3;
  config.max_rule_size = 3;
  config.seed = seed;
  return GenerateTupleRelation(config);
}

QueryRequest Request(RankingSemantics semantics, int k) {
  QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  return request;
}

// Median time of the unpruned Run over `repeats` separately prepared
// copies (built before the timer), so every timed Run is a memo miss.
double FullMs(const TupleRelation& rel, const QueryRequest& request,
              int repeats) {
  std::vector<QueryEngine> engines;
  for (int r = 0; r < repeats; ++r) engines.emplace_back(rel);
  int next = 0;
  return MedianTimeMs(repeats, [&] {
    volatile size_t sink =
        engines[static_cast<size_t>(next++)].Run(request).answer.ids.size();
    (void)sink;
  });
}

bool RunExperiment() {
  bool identical = true;
  const TupleRelation rel = MakeRelation(53);
  const QueryEngine pruned(rel);
  const QueryEngine full(rel);

  Table table("E16: pruned Global-Topk / U-kRanks scan depth (N = 20000)",
              {"k", "Global-Topk accessed", "Global-Topk ms",
               "U-kRanks accessed", "U-kRanks ms"});
  for (int k : {5, 10, 20, 50, 100}) {
    const PrunedRun global =
        RunPrunedChecked(pruned, full, Request(RankingSemantics::kGlobalTopk, k),
                         5, &identical);
    const PrunedRun ukranks =
        RunPrunedChecked(pruned, full, Request(RankingSemantics::kUKRanks, k),
                         5, &identical);
    table.AddRow({FormatInt(k), FormatInt(global.result.stats.tuples_scanned),
                  FormatDouble(global.ms, 3),
                  FormatInt(ukranks.result.stats.tuples_scanned),
                  FormatDouble(ukranks.ms, 3)});
  }
  table.Print();

  // Reference: the unpruned evaluations at a size where the full DP is
  // still comfortable, to show the asymptotic gap the sweep closes.
  TupleGenConfig small = TupleGenConfig();
  small.num_tuples = 4000;
  small.prob_lo = 0.2;
  small.multi_rule_fraction = 0.3;
  small.seed = 54;
  const TupleRelation small_rel = GenerateTupleRelation(small);
  const QueryEngine small_pruned(small_rel);
  const QueryEngine small_full(small_rel);
  Table reference("E16 reference: full evaluation vs pruned (N = 4000, k = 20)",
                  {"algorithm", "time (ms)"});
  for (RankingSemantics semantics :
       {RankingSemantics::kGlobalTopk, RankingSemantics::kUKRanks}) {
    const QueryRequest request = Request(semantics, 20);
    reference.AddRow({std::string(ToString(semantics)) + " (full DP)",
                      FormatDouble(FullMs(small_rel, request, 3), 2)});
    reference.AddRow(
        {std::string(ToString(semantics)) + " (pruned)",
         FormatDouble(RunPrunedChecked(small_pruned, small_full, request, 3,
                                       &identical)
                          .ms,
                      2)});
  }
  std::printf("\n");
  reference.Print();
  return identical;
}

}  // namespace
}  // namespace urank

int main() { return urank::RunExperiment() ? 0 : 1; }
