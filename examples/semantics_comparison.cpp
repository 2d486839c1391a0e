// Side-by-side comparison of every ranking semantics in the library on the
// paper's worked example (Fig. 4), plus a live demonstration of which of
// the five properties each definition violates (paper Fig. 5).
//
// All queries go through the QueryEngine: the relation is prepared once
// and the whole answers table is produced by one RunBatch over shared
// state. The property checker re-ranks mutated copies of the relation, so
// its callback prepares a throwaway engine per invocation.
//
//   $ ./semantics_comparison

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/properties.h"
#include "model/tuple_model.h"
#include "util/table.h"

namespace {

std::string Join(const std::vector<int>& ids) {
  std::string out;
  for (int id : ids) {
    if (!out.empty()) out.append(", ");
    if (id >= 0) {
      out.append("t");
      out.append(std::to_string(id));
    } else {
      out.append("-");
    }
  }
  if (out.empty()) out = "(empty)";
  return out;
}

const char* Mark(bool ok) { return ok ? "yes" : "NO"; }

// One row of the comparison: a display name plus the query parameters
// (k is filled in per column).
struct NamedSemantics {
  const char* name;
  urank::QueryRequest query;
};

urank::QueryRequest MakeQuery(urank::RankingSemantics semantics,
                              double phi = 0.5, double threshold = 0.5) {
  urank::QueryRequest query;
  query.options.semantics = semantics;
  query.options.phi = phi;
  query.options.threshold = threshold;
  return query;
}

std::vector<NamedSemantics> AllSemantics() {
  using urank::RankingSemantics;
  return {
      {"expected rank", MakeQuery(RankingSemantics::kExpectedRank)},
      {"median rank", MakeQuery(RankingSemantics::kMedianRank)},
      {"0.75-quantile rank",
       MakeQuery(RankingSemantics::kQuantileRank, 0.75)},
      {"U-Topk", MakeQuery(RankingSemantics::kUTopk)},
      {"U-kRanks", MakeQuery(RankingSemantics::kUKRanks)},
      {"PT-k (p=0.3)", MakeQuery(RankingSemantics::kPTk, 0.5, 0.3)},
      {"Global-Topk", MakeQuery(RankingSemantics::kGlobalTopk)},
      {"expected score", MakeQuery(RankingSemantics::kExpectedScore)},
  };
}

}  // namespace

int main() {
  // Paper Fig. 4: scores descending t1..t4, t2/t4 mutually exclusive.
  urank::TupleRelation rel(
      {
          {1, 100.0, 0.4},
          {2, 90.0, 0.5},
          {3, 80.0, 1.0},
          {4, 70.0, 0.5},
      },
      {{0}, {1, 3}, {2}});

  std::printf("Relation (paper Fig. 4): t1(100,.4) t2(90,.5) t3(80,1) "
              "t4(70,.5); rule {t2,t4}\n\n");

  const std::vector<NamedSemantics> all = AllSemantics();

  // Prepare once, then answer every (semantics, k) cell from one batch
  // over the shared prepared state.
  const urank::QueryEngine engine(rel);
  const std::vector<int> ks = {1, 2, 3};
  std::vector<urank::QueryRequest> batch;
  for (const NamedSemantics& semantics : all) {
    for (int k : ks) {
      urank::QueryRequest request = semantics.query;
      request.options.k = k;
      batch.push_back(request);
    }
  }
  const std::vector<urank::QueryResult> results = engine.RunBatch(batch);

  urank::Table answers("top-k answers per semantics",
                       {"semantics", "k=1", "k=2", "k=3"});
  for (size_t s = 0; s < all.size(); ++s) {
    std::vector<std::string> row = {all[s].name};
    for (size_t c = 0; c < ks.size(); ++c) {
      row.push_back(Join(results[s * ks.size() + c].answer.ids));
    }
    answers.AddRow(row);
  }
  answers.Print();

  std::printf("\nNote how U-Topk's top-1 (t1) vanishes from its top-2, and "
              "U-kRanks repeats\ntuples / leaves rank 4 empty — the paper's "
              "containment and unique-ranking\ncounterexamples.\n\n");

  urank::Table props("property check (paper Fig. 5)",
                     {"semantics", "exact-k", "containment", "unique",
                      "value-inv", "stability"});
  urank::PropertyCheckOptions options;
  options.max_k = 4;
  options.stability_trials = 16;
  for (const NamedSemantics& semantics : all) {
    // The checker perturbs the relation, so each call prepares fresh
    // state; capture the query shape and fill in k per invocation.
    const urank::QueryRequest base = semantics.query;
    const urank::TupleSemanticsFn fn = [base](const urank::TupleRelation& r,
                                              int k) {
      urank::QueryRequest query = base;
      query.options.k = k;
      return urank::QueryEngine(r).Run(query).answer.ids;
    };
    const urank::PropertyReport report =
        urank::CheckTupleProperties(fn, rel, options);
    props.AddRow({semantics.name, Mark(report.exact_k),
                  Mark(report.containment), Mark(report.unique_rank),
                  Mark(report.value_invariance), Mark(report.stability)});
  }
  props.Print();
  std::printf("\n(\"NO\" = a violation was exhibited on this instance; "
              "absence of a violation on\none instance does not prove the "
              "property in general.)\n");
  return 0;
}
