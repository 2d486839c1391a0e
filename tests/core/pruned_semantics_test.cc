// Tests for the early-terminating Global-Topk and U-kRanks evaluations and
// the shared ScoreOrderSweep they are built on.

#include <vector>

#include "core/rank_distribution_tuple.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/score_sweep.h"
#include "core/semantics/semantics.h"
#include "core/semantics/u_kranks.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallTuple;

TEST(ScoreOrderSweepTest, TopKProbabilityMatchesBatchComputation) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 9);
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      for (int k : {1, 3, 5}) {
        const std::vector<double> batch =
            TupleTopKProbabilities(Prepared(rel), k, ties);
        ScoreOrderSweep sweep(rel, ties);
        while (sweep.HasNext()) {
          const int i = sweep.Next();
          EXPECT_NEAR(sweep.TopKProbability(k),
                      batch[static_cast<size_t>(i)], 1e-9)
              << "tuple " << i << " k=" << k;
        }
      }
    }
  }
}

TEST(ScoreOrderSweepTest, PositionalProbabilitiesMatchBatchComputation) {
  Rng rng(2);
  TupleRelation rel = RandomSmallTuple(rng, 8);
  const auto batch = TuplePositionalProbabilities(rel);
  ScoreOrderSweep sweep(rel, TiePolicy::kBreakByIndex);
  std::vector<double> positional;
  while (sweep.HasNext()) {
    const int i = sweep.Next();
    sweep.PositionalProbabilities(5, &positional);
    for (int r = 0; r < 5; ++r) {
      EXPECT_NEAR(positional[static_cast<size_t>(r)],
                  batch[static_cast<size_t>(i)][static_cast<size_t>(r)],
                  1e-9);
    }
  }
}

TEST(ScoreOrderSweepTest, UnseenBoundsAreSound) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 10);
    const int k = 3;
    const std::vector<double> probs = TupleTopKProbabilities(Prepared(rel), k);
    const auto positional = TuplePositionalProbabilities(rel);
    ScoreOrderSweep sweep(rel, TiePolicy::kBreakByIndex);
    std::vector<bool> seen(static_cast<size_t>(rel.size()), false);
    while (sweep.HasNext()) {
      seen[static_cast<size_t>(sweep.Next())] = true;
      const double topk_bound = sweep.UnseenTopKBound(k);
      for (int j = 0; j < rel.size(); ++j) {
        if (seen[static_cast<size_t>(j)]) continue;
        EXPECT_LE(probs[static_cast<size_t>(j)], topk_bound + 1e-9);
        for (int r = 0; r < k; ++r) {
          EXPECT_LE(
              positional[static_cast<size_t>(j)][static_cast<size_t>(r)],
              sweep.UnseenRankBound(r) + 1e-9);
        }
      }
    }
  }
}

TEST(ScoreOrderSweepDeathTest, QueriesBeforeNext) {
  TupleRelation rel = PaperFig4();
  ScoreOrderSweep sweep(rel, TiePolicy::kBreakByIndex);
  EXPECT_DEATH(sweep.TopKProbability(1), "before Next");
}

TEST(TupleGlobalTopKPrunedTest, MatchesUnprunedOnPaperExample) {
  for (int k = 1; k <= 4; ++k) {
    const GlobalTopKPruneResult pruned = TupleGlobalTopKPruned(PaperFig4(), k);
    EXPECT_EQ(pruned.ids, TupleGlobalTopK(Prepared(PaperFig4()), k))
        << "k=" << k;
  }
}

TEST(TupleGlobalTopKPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 10);
    for (int k : {1, 3, 6}) {
      for (TiePolicy ties :
           {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
        EXPECT_EQ(TupleGlobalTopKPruned(rel, k, ties).ids,
                  TupleGlobalTopK(Prepared(rel), k, ties))
            << "k=" << k;
      }
    }
  }
}

TEST(TupleGlobalTopKPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.4;
  config.seed = 5;
  TupleRelation rel = GenerateTupleRelation(config);
  const GlobalTopKPruneResult pruned = TupleGlobalTopKPruned(rel, 20);
  EXPECT_LT(pruned.accessed, rel.size() / 10);
  EXPECT_EQ(pruned.ids, TupleGlobalTopK(Prepared(rel), 20));
}

TEST(TupleUKRanksPrunedTest, MatchesUnprunedOnPaperExample) {
  for (int k = 1; k <= 4; ++k) {
    const UKRanksPruneResult pruned = TupleUKRanksPruned(PaperFig4(), k);
    EXPECT_EQ(pruned.ids, TupleUKRanks(Prepared(PaperFig4()), k)) << "k=" << k;
  }
}

TEST(TupleUKRanksPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 10);
    for (int k : {1, 3, 6}) {
      for (TiePolicy ties :
           {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
        EXPECT_EQ(TupleUKRanksPruned(rel, k, ties).ids,
                  TupleUKRanks(Prepared(rel), k, ties))
            << "k=" << k;
      }
    }
  }
}

TEST(TupleUKRanksPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.4;
  config.seed = 7;
  TupleRelation rel = GenerateTupleRelation(config);
  const UKRanksPruneResult pruned = TupleUKRanksPruned(rel, 10);
  EXPECT_LT(pruned.accessed, rel.size() / 10);
  EXPECT_EQ(pruned.ids, TupleUKRanks(Prepared(rel), 10));
}

TEST(PrunedSemanticsDeathTest, RejectBadArguments) {
  EXPECT_DEATH(TupleGlobalTopKPruned(PaperFig4(), 0), "k must be >= 1");
  EXPECT_DEATH(TupleUKRanksPruned(PaperFig4(), 0), "k must be >= 1");
}

}  // namespace
}  // namespace urank
