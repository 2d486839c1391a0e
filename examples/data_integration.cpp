// Data integration / record matching: tuple-level uncertainty with
// exclusion rules (the paper's motivating application for that model).
//
// Two catalogues of the same product domain are merged. Each candidate
// match carries a relevance score and a matcher confidence (existence
// probability). Alternative matches for the same source record are
// mutually exclusive — exactly an x-relation. We ask for the k best
// products across the merged, uncertain catalogue.
//
//   $ ./data_integration

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/engine/query_engine.h"
#include "gen/tuple_gen.h"
#include "model/tuple_model.h"
#include "util/rng.h"

namespace {

// One top-k query; aborts the demo on a non-ok status.
urank::QueryResult Run(const urank::QueryEngine& engine,
                       urank::RankingSemantics semantics, int k,
                       urank::TiePolicy ties, bool prune = false) {
  urank::QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  request.options.ties = ties;
  request.prune = prune;
  urank::QueryResult result = engine.Run(request);
  if (!result.status.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status.message.c_str());
    std::exit(1);
  }
  return result;
}

// Top-k answer of one query.
urank::RankingAnswer TopK(const urank::QueryEngine& engine,
                          urank::RankingSemantics semantics, int k,
                          urank::TiePolicy ties) {
  return Run(engine, semantics, k, ties).answer;
}

// Builds the merged catalogue: `records` source records, each producing
// 1-3 alternative matches whose confidences sum to at most 1.
urank::TupleRelation BuildMergedCatalogue(int records, urank::Rng& rng) {
  std::vector<urank::TLTuple> tuples;
  std::vector<std::vector<int>> rules;
  int next_id = 0;
  for (int r = 0; r < records; ++r) {
    const int alternatives = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<double> conf =
        rng.RandomSimplex(alternatives, rng.Uniform(0.6, 1.0));
    const double base_score = rng.Uniform(0.0, 100.0);
    std::vector<int> rule;
    for (int a = 0; a < alternatives; ++a) {
      // Alternatives score similarly but not identically.
      tuples.push_back({next_id, base_score + rng.Uniform(-5.0, 5.0),
                        conf[static_cast<size_t>(a)]});
      rule.push_back(next_id);
      ++next_id;
    }
    rules.push_back(std::move(rule));
  }
  return urank::TupleRelation(std::move(tuples), std::move(rules));
}

}  // namespace

int main() {
  urank::Rng rng(7);
  const int kRecords = 400;
  const int k = 8;
  const urank::TupleRelation catalogue = BuildMergedCatalogue(kRecords, rng);
  const urank::QueryEngine engine(catalogue);

  std::printf("Merged catalogue: %d candidate tuples from %d records "
              "(%d exclusion rules), E[|W|] = %.1f\n\n",
              catalogue.size(), kRecords, catalogue.num_rules(),
              catalogue.ExpectedWorldSize());

  // Expected ranks use the paper's strict-greater rank definition
  // (Definition 6); the other semantics break score ties by index.
  const urank::RankingAnswer by_rank =
      TopK(engine, urank::RankingSemantics::kExpectedRank, k,
           urank::TiePolicy::kStrictGreater);
  std::printf("Top-%d products by expected rank:\n", k);
  for (size_t i = 0; i < by_rank.ids.size(); ++i) {
    const int id = by_rank.ids[i];  // ids are dense in this example
    std::printf("  match %4d  score %6.2f  conf %.2f  r = %.2f\n", id,
                catalogue.tuple(id).score, catalogue.tuple(id).prob,
                by_rank.statistics[i]);
  }

  const urank::RankingAnswer by_median =
      TopK(engine, urank::RankingSemantics::kMedianRank, k,
           urank::TiePolicy::kBreakByIndex);
  std::printf("\nTop-%d by median rank:\n", k);
  for (size_t i = 0; i < by_median.ids.size(); ++i) {
    std::printf("  match %4d  median rank = %.0f\n", by_median.ids[i],
                by_median.statistics[i]);
  }

  std::printf("\nGlobal-Topk (by top-%d membership probability):\n", k);
  for (int id : TopK(engine, urank::RankingSemantics::kGlobalTopk, k,
                     urank::TiePolicy::kBreakByIndex)
                    .ids) {
    std::printf("  match %4d\n", id);
  }

  // The pruned algorithm (T-ERank-Prune, paper Section 6.2) reads matches
  // in score order and stops early — the access pattern a disk- or
  // network-resident catalogue wants. QueryRequest::prune selects it; a
  // fresh engine keeps the memoized ranks above from answering instead.
  const urank::QueryResult pruned =
      Run(urank::QueryEngine(catalogue), urank::RankingSemantics::kExpectedRank,
          k, urank::TiePolicy::kStrictGreater, /*prune=*/true);
  std::printf(
      "\nT-ERank-Prune touched %lld of %d matches (answer is %s).\n",
      pruned.stats.tuples_scanned, catalogue.size(),
      pruned.answer.ids == by_rank.ids ? "exact" : "DIFFERENT");
  return 0;
}
