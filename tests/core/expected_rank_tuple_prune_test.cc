// T-ERank-Prune through QueryEngine::Run with QueryRequest::prune: the
// pruned answer must equal the unpruned T-ERank top-k bit for bit (ids and
// expected ranks, EXPECT_EQ), and the eq. (9) bound must actually stop the
// scan where the paper says it does.

#include <algorithm>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/expected_rank_tuple.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::ExpectPruneMatchesUnpruned;
using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallTuple;

// Expected rank under the paper's rank definition (Definition 6), the
// default of the T-ERank entry points.
QueryRequest ExpectedRankRequest(
    int k, TiePolicy ties = TiePolicy::kStrictGreater) {
  return testing_util::Request(RankingSemantics::kExpectedRank, k, ties);
}

TEST(TuplePruneTest, PaperFig4AllK) {
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    ExpectPruneMatchesUnpruned(PaperFig4(), ExpectedRankRequest(k));
  }
}

TEST(TuplePruneTest, AlwaysMatchesExactTopK) {
  // T-ERank-Prune's bound is sound: the pruned answer is the true top-k.
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 12);
    for (int k : {1, 3, 7}) {
      for (TiePolicy ties :
           {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        const QueryStats stats =
            ExpectPruneMatchesUnpruned(rel, ExpectedRankRequest(k, ties));
        EXPECT_LE(stats.tuples_scanned, rel.size());
      }
    }
  }
}

TEST(TuplePruneTest, PrunesWithHighProbabilities) {
  // With probabilities near 1 the prefix mass grows one-per-tuple. The
  // scan still has to cover the absent-branch term (1-p)·E[|W|] of the
  // best ranks, but must stop well before the end.
  TupleGenConfig config;
  config.num_tuples = 2000;
  config.prob_lo = 0.95;
  config.prob_hi = 1.0;
  config.multi_rule_fraction = 0.0;
  config.seed = 5;
  TupleRelation rel = GenerateTupleRelation(config);
  const QueryStats stats =
      ExpectPruneMatchesUnpruned(rel, ExpectedRankRequest(10));
  EXPECT_GT(stats.tuples_scanned, 0);
  EXPECT_LT(stats.tuples_scanned, rel.size() / 4);
}

TEST(TuplePruneTest, ScansMoreWithLowProbabilities) {
  TupleGenConfig config;
  config.num_tuples = 2000;
  config.prob_lo = 0.02;
  config.prob_hi = 0.1;
  config.multi_rule_fraction = 0.0;
  config.seed = 6;
  const QueryStats low = ExpectPruneMatchesUnpruned(
      GenerateTupleRelation(config), ExpectedRankRequest(10));
  config.prob_lo = 0.9;
  config.prob_hi = 1.0;
  const QueryStats high = ExpectPruneMatchesUnpruned(
      GenerateTupleRelation(config), ExpectedRankRequest(10));
  EXPECT_GT(low.tuples_scanned, high.tuples_scanned);
}

TEST(TuplePruneTest, CorrectWithExclusionRulesOnGeneratedData) {
  TupleGenConfig config;
  config.num_tuples = 800;
  config.multi_rule_fraction = 0.5;
  config.max_rule_size = 4;
  config.seed = 7;
  TupleRelation rel = GenerateTupleRelation(config);
  for (int k : {1, 10, 50}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    ExpectPruneMatchesUnpruned(rel, ExpectedRankRequest(k));
  }
}

TEST(TuplePruneTest, TiedScoresStaySound) {
  // All scores equal: the strict-policy flushed mass never grows, so the
  // algorithm must scan everything — and still be correct.
  std::vector<TLTuple> tuples;
  for (int i = 0; i < 20; ++i) tuples.push_back({i, 5.0, 0.9});
  TupleRelation rel = TupleRelation::Independent(std::move(tuples));
  const QueryStats stats =
      ExpectPruneMatchesUnpruned(rel, ExpectedRankRequest(3));
  EXPECT_EQ(stats.tuples_scanned, rel.size());
  EXPECT_EQ(stats.prune_stop_position, rel.size());
}

TEST(TuplePruneTest, SingleTuple) {
  TupleRelation rel = TupleRelation::Independent({{0, 1.0, 0.5}});
  const PrunedTopKResult pruned =
      TupleExpectedRankTopKPrune(Prepared(rel), 1);
  ASSERT_EQ(pruned.topk.size(), 1u);
  EXPECT_EQ(pruned.topk[0].id, 0);
  ExpectPruneMatchesUnpruned(rel, ExpectedRankRequest(1));
}

TEST(TuplePruneDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(TupleExpectedRankTopKPrune(Prepared(PaperFig4()), 0),
               "k must be >= 1");
}

}  // namespace
}  // namespace urank
