// Quickstart: build a tiny uncertain relation in each model and answer a
// top-k query by expected rank — the paper's Figs. 2 and 4 end to end.
//
//   $ ./quickstart

#include <cstdio>

#include "core/engine/query_engine.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace {

// Runs one top-k query and prints the answer: ids in rank order with the
// statistic each was ranked by.
void PrintTopK(const char* title, const urank::QueryEngine& engine,
               urank::RankingSemantics semantics, int k) {
  urank::QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  const urank::QueryResult result = engine.Run(request);
  std::printf("%s\n", title);
  if (!result.status.ok()) {
    std::printf("  error: %s\n", result.status.message.c_str());
    return;
  }
  const urank::RankingAnswer& answer = result.answer;
  for (size_t pos = 0; pos < answer.ids.size(); ++pos) {
    std::printf("  #%zu: tuple t%d (statistic %.3f)\n", pos + 1,
                answer.ids[pos], answer.statistics[pos]);
  }
}

}  // namespace

int main() {
  // ---- Attribute-level model: every tuple exists, its score is a small
  // discrete pdf (paper Fig. 2). The engine prepares the relation once;
  // every query after that reuses the prepared state.
  const urank::QueryEngine attr(urank::AttrRelation({
      {1, {{100.0, 0.4}, {70.0, 0.6}}},
      {2, {{92.0, 0.6}, {80.0, 0.4}}},
      {3, {{85.0, 1.0}}},
  }));
  PrintTopK("Attribute-level top-3 by expected rank (expect t2, t3, t1):",
            attr, urank::RankingSemantics::kExpectedRank, 3);

  // ---- Tuple-level model: fixed scores, existence probabilities, and an
  // exclusion rule saying t2 and t4 never co-occur (paper Fig. 4).
  const urank::TupleRelation tuples(
      {
          {1, 100.0, 0.4},
          {2, 90.0, 0.5},
          {3, 80.0, 1.0},
          {4, 70.0, 0.5},
      },
      {{0}, {1, 3}, {2}});
  const urank::QueryEngine tuple(tuples);
  PrintTopK("\nTuple-level top-4 by expected rank (expect t3, t1, t2, t4):",
            tuple, urank::RankingSemantics::kExpectedRank, 4);

  // ---- The same query under the median rank: a more outlier-robust
  // statistic of the same rank distribution (paper Section 7).
  PrintTopK("\nTuple-level top-4 by median rank (expect t2, t3, t1, t4):",
            tuple, urank::RankingSemantics::kMedianRank, 4);

  // ---- Pruned evaluation (T-ERank-Prune, paper Section 6.2): the same
  // answer from fewer tuple accesses. It runs on a fresh engine: an
  // engine whose memo already holds the expected ranks (the top-4 above)
  // serves the cheaper cached selection instead.
  urank::QueryRequest request;
  request.options.semantics = urank::RankingSemantics::kExpectedRank;
  request.options.k = 2;
  request.prune = true;
  const urank::QueryResult pruned = urank::QueryEngine(tuples).Run(request);
  std::printf("\nT-ERank-Prune touched %lld of %d tuples for the top-2.\n",
              pruned.stats.tuples_scanned, tuples.size());
  return 0;
}
