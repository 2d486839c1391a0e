// Experiment E16 (extension): scan depth of the early-terminating
// Global-Topk and U-kRanks evaluations built on the shared score-order
// sweep, versus the full O(N M²)-DP evaluation they replace.
//
// Expected shape: like PT-k (E15), both algorithms stop after seeing only
// about k units of probability mass; the full evaluation touches all N
// tuples and pays the rank-distribution DP.

#include <cstdio>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/u_kranks.h"
#include "gen/tuple_gen.h"
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

void RunExperiment() {
  TupleRelation rel = MakeRelation(53);

  Table table("E16: pruned Global-Topk / U-kRanks scan depth (N = 20000)",
              {"k", "Global-Topk accessed", "Global-Topk ms",
               "U-kRanks accessed", "U-kRanks ms"});
  for (int k : {5, 10, 20, 50, 100}) {
    GlobalTopKPruneResult global;
    const double global_ms =
        MedianTimeMs(5, [&] { global = TupleGlobalTopKPruned(rel, k); });
    UKRanksPruneResult ukranks;
    const double ukranks_ms =
        MedianTimeMs(5, [&] { ukranks = TupleUKRanksPruned(rel, k); });
    table.AddRow({FormatInt(k), FormatInt(global.accessed),
                  FormatDouble(global_ms, 3), FormatInt(ukranks.accessed),
                  FormatDouble(ukranks_ms, 3)});
  }
  table.Print();

  // Reference: the unpruned evaluations at a size where the full DP is
  // still comfortable, to show the asymptotic gap the sweep closes.
  TupleGenConfig small = TupleGenConfig();
  small.num_tuples = 4000;
  small.prob_lo = 0.2;
  small.multi_rule_fraction = 0.3;
  small.seed = 54;
  TupleRelation small_rel = GenerateTupleRelation(small);
  Table reference("E16 reference: full evaluation vs pruned (N = 4000, k = 20)",
                  {"algorithm", "time (ms)"});
  reference.AddRow({"Global-Topk (full DP)", FormatDouble(MedianTimeMs(3, [&] {
                      const PreparedTupleRelation prepared(small_rel);
                      volatile size_t sink =
                          TupleGlobalTopK(prepared, 20).size();
                      (void)sink;
                    }), 2)});
  reference.AddRow({"Global-Topk (pruned)", FormatDouble(MedianTimeMs(3, [&] {
                      volatile size_t sink =
                          TupleGlobalTopKPruned(small_rel, 20).ids.size();
                      (void)sink;
                    }), 2)});
  reference.AddRow({"U-kRanks (full DP)", FormatDouble(MedianTimeMs(3, [&] {
                      const PreparedTupleRelation prepared(small_rel);
                      volatile size_t sink = TupleUKRanks(prepared, 20).size();
                      (void)sink;
                    }), 2)});
  reference.AddRow({"U-kRanks (pruned)", FormatDouble(MedianTimeMs(3, [&] {
                      volatile size_t sink =
                          TupleUKRanksPruned(small_rel, 20).ids.size();
                      (void)sink;
                    }), 2)});
  std::printf("\n");
  reference.Print();
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
