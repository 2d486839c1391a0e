// Experiment E11: empirical reproduction of the paper's Fig. 5 — the
// property matrix of every ranking definition. Each semantics is probed on
// many randomized instances in both uncertainty models; a property is
// marked violated ("NO") if any instance exhibits a violation.
//
// Paper shape (Fig. 5):
//                exact-k containment unique value-inv stability
//   U-Topk          ✗        ✗         ✓        ✓         ✓
//   U-kRanks        ✗*       ✓         ✗        ✓         ✗
//   PT-k            ✗      weak        ✓        ✓         ✓
//   Global-Topk     ✓        ✗         ✓        ✓         ✓
//   E-Score         ✓        ✓         ✓        ✗         ✓
//   E-Rank          ✓        ✓         ✓        ✓         ✓
//   (M-Rank / Q-Rank: same row as E-Rank, paper Theorem 2.)
// *U-kRanks keeps k entries in the attribute-level model but can leave
//  ranks unfilled in the tuple-level model.

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/properties.h"
#include "core/quantile_rank.h"
#include "core/ranking.h"
#include "core/semantics/expected_score.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/u_kranks.h"
#include "core/semantics/u_topk.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "util/rng.h"
#include "util/table.h"

namespace urank {
namespace {

struct Row {
  std::string name;
  AttrSemanticsFn attr;
  TupleSemanticsFn tuple;
};

std::vector<Row> AllSemantics() {
  return {
      {"U-Topk",
       [](const AttrRelation& r, int k) {
         return AttrUTopK(PreparedAttrRelation(r), k).ids;
       },
       [](const TupleRelation& r, int k) {
         return TupleUTopK(PreparedTupleRelation(r), k).ids;
       }},
      {"U-kRanks",
       [](const AttrRelation& r, int k) {
         return AttrUKRanks(PreparedAttrRelation(r), k);
       },
       [](const TupleRelation& r, int k) {
         return TupleUKRanks(PreparedTupleRelation(r), k);
       }},
      {"PT-k(0.3)",
       [](const AttrRelation& r, int k) {
         return AttrPTk(PreparedAttrRelation(r), k, 0.3);
       },
       [](const TupleRelation& r, int k) {
         return TuplePTk(PreparedTupleRelation(r), k, 0.3);
       }},
      {"Global-Topk",
       [](const AttrRelation& r, int k) {
         return AttrGlobalTopK(PreparedAttrRelation(r), k);
       },
       [](const TupleRelation& r, int k) {
         return TupleGlobalTopK(PreparedTupleRelation(r), k);
       }},
      {"E-Score",
       [](const AttrRelation& r, int k) {
         return IdsOf(AttrExpectedScoreTopK(PreparedAttrRelation(r), k));
       },
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleExpectedScoreTopK(PreparedTupleRelation(r), k));
       }},
      {"E-Rank",
       [](const AttrRelation& r, int k) {
         return IdsOf(AttrExpectedRankTopK(PreparedAttrRelation(r), k));
       },
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleExpectedRankTopK(PreparedTupleRelation(r), k));
       }},
      {"M-Rank",
       [](const AttrRelation& r, int k) {
         return IdsOf(AttrQuantileRankTopK(PreparedAttrRelation(r), k, 0.5));
       },
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleQuantileRankTopK(PreparedTupleRelation(r), k, 0.5));
       }},
      {"Q-Rank(.75)",
       [](const AttrRelation& r, int k) {
         return IdsOf(AttrQuantileRankTopK(PreparedAttrRelation(r), k, 0.75));
       },
       [](const TupleRelation& r, int k) {
         return IdsOf(TupleQuantileRankTopK(PreparedTupleRelation(r), k, 0.75));
       }},
  };
}

// Small random instances with enumerable worlds (U-Topk with rules and the
// attribute-level U-Topk rely on enumeration).
AttrRelation RandomAttr(Rng& rng) {
  AttrGenConfig config;
  config.num_tuples = static_cast<int>(rng.UniformInt(4, 7));
  config.pdf_size = 2;
  config.score_scale = 20.0;
  config.value_spread = 4.0;
  config.seed = rng.engine()();
  return GenerateAttrRelation(config);
}

TupleRelation RandomTuple(Rng& rng) {
  TupleGenConfig config;
  config.num_tuples = static_cast<int>(rng.UniformInt(4, 9));
  config.multi_rule_fraction = 0.4;
  config.max_rule_size = 3;
  config.score_scale = 20.0;
  config.prob_lo = 0.1;
  config.seed = rng.engine()();
  return GenerateTupleRelation(config);
}

struct Tally {
  int exact_k = 0, containment = 0, weak = 0, unique = 0, value = 0,
      stability = 0;

  void Absorb(const PropertyReport& report) {
    exact_k += report.exact_k ? 0 : 1;
    containment += report.containment ? 0 : 1;
    weak += report.weak_containment ? 0 : 1;
    unique += report.unique_rank ? 0 : 1;
    value += report.value_invariance ? 0 : 1;
    stability += report.stability ? 0 : 1;
  }
};

std::string Cell(int violations, int weak_violations = -1) {
  if (violations == 0) return "yes";
  if (weak_violations == 0) return "weak(" + std::to_string(violations) + ")";
  return "NO(" + std::to_string(violations) + ")";
}

void RunExperiment() {
  constexpr int kInstances = 40;
  Rng rng(2009);
  std::vector<AttrRelation> attr_instances;
  std::vector<TupleRelation> tuple_instances;
  for (int i = 0; i < kInstances; ++i) {
    attr_instances.push_back(RandomAttr(rng));
    tuple_instances.push_back(RandomTuple(rng));
  }

  Table table("E11: property matrix over " + std::to_string(kInstances) +
                  "+" + std::to_string(kInstances) +
                  " random instances (violation counts; paper Fig. 5)",
              {"semantics", "exact-k", "containment", "unique-rank",
               "value-inv", "stability"});
  for (const Row& row : AllSemantics()) {
    Tally tally;
    PropertyCheckOptions options;
    options.stability_trials = 4;
    for (int i = 0; i < kInstances; ++i) {
      options.seed = static_cast<uint64_t>(1000 + i);
      tally.Absorb(CheckAttrProperties(row.attr, attr_instances[static_cast<size_t>(i)], options));
      tally.Absorb(CheckTupleProperties(
          row.tuple, tuple_instances[static_cast<size_t>(i)], options));
    }
    table.AddRow({row.name, Cell(tally.exact_k),
                  Cell(tally.containment, tally.weak), Cell(tally.unique),
                  Cell(tally.value), Cell(tally.stability)});
  }
  table.Print();
  std::printf(
      "\nyes = no violation found; NO(c) = violated on c probes; weak(c) = "
      "strong\ncontainment violated c times but weak containment always "
      "held.\n");
}

}  // namespace
}  // namespace urank

int main() {
  urank::RunExperiment();
  return 0;
}
