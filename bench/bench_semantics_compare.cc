// Experiment E10: cross-semantics comparison — how similar are the top-k
// answers (and full orderings) produced by the different ranking
// definitions on the same uncertain relation?
//
// Reported, as in the paper's comparison study: pairwise top-k set overlap
// for several k, and Kendall tau distance between the full orderings of
// the rank-statistic-based definitions.
//
// Paper shape: expected/median/quantile ranks agree closely with one
// another; expected score diverges when probabilities vary; U-kRanks and
// Global-Topk diverge most at small k.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "core/ranking.h"
#include "core/semantics/expected_score.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/u_kranks.h"
#include "core/semantics/u_topk.h"
#include "gen/tuple_gen.h"
#include "util/rank_metrics.h"
#include "util/table.h"

namespace urank {
namespace {

constexpr int kN = 2000;

struct NamedSemantics {
  std::string name;
  std::function<std::vector<int>(const TupleRelation&, int)> topk;
};

std::vector<NamedSemantics> AllSemantics() {
  return {
      {"E-Rank",
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleExpectedRankTopK(PreparedTupleRelation(r), k));
       }},
      {"M-Rank",
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleQuantileRankTopK(PreparedTupleRelation(r), k, 0.5));
       }},
      {"Q-Rank(.75)",
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleQuantileRankTopK(PreparedTupleRelation(r), k, 0.75));
       }},
      {"Global-Topk",
       [](const TupleRelation& r, int k) {
         return TupleGlobalTopK(PreparedTupleRelation(r), k);
       }},
      // Feasible at this scale only because of the polynomial cutoff
      // sweep (E17); the answer can be shorter than k.
      {"U-Topk",
       [](const TupleRelation& r, int k) {
         return TupleUTopK(PreparedTupleRelation(r), k).ids;
       }},
      {"U-kRanks",
       [](const TupleRelation& r, int k) {
         std::vector<int> ids = TupleUKRanks(PreparedTupleRelation(r), k);
         std::vector<int> real;
         for (int id : ids) {
           if (id >= 0) real.push_back(id);
         }
         return real;
       }},
      {"E-Score",
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleExpectedScoreTopK(PreparedTupleRelation(r), k));
       }},
  };
}

void RunExperiment() {
  TupleGenConfig config;
  config.num_tuples = kN;
  config.multi_rule_fraction = 0.3;
  config.max_rule_size = 3;
  config.seed = 29;
  TupleRelation rel = GenerateTupleRelation(config);
  const std::vector<NamedSemantics> semantics = AllSemantics();

  for (int k : {10, 50, 200}) {
    Table overlap("E10: pairwise top-" + std::to_string(k) +
                      " overlap (N = 2000)",
                  [&] {
                    std::vector<std::string> cols = {"semantics"};
                    for (const auto& s : semantics) cols.push_back(s.name);
                    return cols;
                  }());
    std::vector<std::vector<int>> answers;
    answers.reserve(semantics.size());
    for (const auto& s : semantics) answers.push_back(s.topk(rel, k));
    for (size_t i = 0; i < semantics.size(); ++i) {
      std::vector<std::string> row = {semantics[i].name};
      for (size_t j = 0; j < semantics.size(); ++j) {
        row.push_back(FormatDouble(TopKOverlap(answers[i], answers[j]), 2));
      }
      overlap.AddRow(std::move(row));
    }
    overlap.Print();
    std::printf("\n");
  }

  // Kendall tau over the FULL orderings of the statistic-based
  // definitions (all produce a total order over all N tuples).
  const PreparedTupleRelation prepared(rel);
  const std::vector<int> er = IdsOf(TupleExpectedRankTopK(prepared, kN));
  const std::vector<int> mr = IdsOf(TupleQuantileRankTopK(prepared, kN, 0.5));
  const std::vector<int> qr =
      IdsOf(TupleQuantileRankTopK(prepared, kN, 0.75));
  const std::vector<int> es = IdsOf(TupleExpectedScoreTopK(prepared, kN));
  Table tau("E10: rank-correlation distances between full orderings",
            {"pair", "Kendall tau", "Spearman footrule"});
  auto add = [&](const char* name, const std::vector<int>& a,
                 const std::vector<int>& b) {
    tau.AddRow({name, FormatDouble(KendallTauDistance(a, b), 4),
                FormatDouble(SpearmanFootruleDistance(a, b), 4)});
  };
  add("E-Rank vs M-Rank", er, mr);
  add("E-Rank vs Q-Rank(.75)", er, qr);
  add("M-Rank vs Q-Rank(.75)", mr, qr);
  add("E-Rank vs E-Score", er, es);
  tau.Print();
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
