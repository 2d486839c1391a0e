#include <algorithm>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/semantics.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;

std::vector<int> Sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(AttrPTkTest, PaperFig2ExampleWithThresholdPointFour) {
  // Section 4.2: with p = 0.4 the PT-1 answer is {t1}, but PT-2 and PT-3
  // both return {t1, t2, t3} (weak containment, exact-k violations).
  EXPECT_EQ(Sorted(AttrPTk(Prepared(PaperFig2()), 1, 0.4)),
            (std::vector<int>{1}));
  EXPECT_EQ(Sorted(AttrPTk(Prepared(PaperFig2()), 2, 0.4)),
            (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Sorted(AttrPTk(Prepared(PaperFig2()), 3, 0.4)),
            (std::vector<int>{1, 2, 3}));
}

TEST(AttrPTkTest, HighThresholdCanReturnEmpty) {
  EXPECT_TRUE(AttrPTk(Prepared(PaperFig2()), 1, 0.95).empty());
}

TEST(AttrPTkTest, ThresholdOneKeepsOnlyCertainMembers) {
  AttrRelation rel({
      {0, {{100.0, 1.0}}},
      {1, {{50.0, 0.5}, {60.0, 0.5}}},
      {2, {{10.0, 1.0}}},
  });
  EXPECT_EQ(Sorted(AttrPTk(Prepared(rel), 1, 1.0)), (std::vector<int>{0}));
  EXPECT_EQ(Sorted(AttrPTk(Prepared(rel), 2, 1.0)), (std::vector<int>{0, 1}));
}

TEST(AttrPTkTest, OrderedByDescendingProbability) {
  const std::vector<int> answer = AttrPTk(Prepared(PaperFig2()), 2, 0.1);
  // top-2 probabilities: t2 (.84) > t3 (.76) > t1 (.4).
  EXPECT_EQ(answer, (std::vector<int>{2, 3, 1}));
}

TEST(TuplePTkTest, ThresholdSweepIsMonotone) {
  Rng rng(1);
  TupleRelation rel = testing_util::RandomSmallTuple(rng, 8);
  size_t prev = 1u << 20;
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const size_t size = TuplePTk(Prepared(rel), 3, p).size();
    EXPECT_LE(size, prev);
    prev = size;
  }
}

TEST(AttrGlobalTopKTest, PaperFig2ContainmentCounterexample) {
  // Section 4.2: top-1 is t1, but top-2 is (t2, t3).
  EXPECT_EQ(AttrGlobalTopK(Prepared(PaperFig2()), 1), (std::vector<int>{1}));
  EXPECT_EQ(AttrGlobalTopK(Prepared(PaperFig2()), 2), (std::vector<int>{2, 3}));
}

TEST(TupleGlobalTopKTest, PaperFig4ContainmentCounterexample) {
  // Section 4.2: top-1 is t1, but top-2 is (t3, t2).
  EXPECT_EQ(TupleGlobalTopK(Prepared(PaperFig4()), 1), (std::vector<int>{1}));
  EXPECT_EQ(TupleGlobalTopK(Prepared(PaperFig4()), 2),
            (std::vector<int>{3, 2}));
}

TEST(GlobalTopKTest, AlwaysReturnsExactlyKWhenPossible) {
  Rng rng(2);
  TupleRelation trel = testing_util::RandomSmallTuple(rng, 9);
  AttrRelation arel = testing_util::RandomSmallAttr(rng, 7, 3);
  for (int k = 1; k <= 6; ++k) {
    EXPECT_EQ(static_cast<int>(TupleGlobalTopK(Prepared(trel), k).size()),
              std::min(k, trel.size()));
    EXPECT_EQ(static_cast<int>(AttrGlobalTopK(Prepared(arel), k).size()),
              std::min(k, arel.size()));
  }
}

TEST(GlobalTopKTest, TopNIncludesEveryTuple) {
  Rng rng(3);
  AttrRelation rel = testing_util::RandomSmallAttr(rng, 6, 2);
  EXPECT_EQ(Sorted(AttrGlobalTopK(Prepared(rel), 6)),
            (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(GlobalTopKTest, AgreesWithTopKProbabilities) {
  Rng rng(4);
  TupleRelation rel = testing_util::RandomSmallTuple(rng, 8);
  const int k = 3;
  const std::vector<int> answer = TupleGlobalTopK(Prepared(rel), k);
  const std::vector<double> probs = TupleTopKProbabilities(Prepared(rel), k);
  // The k-th reported tuple's probability must be >= every unreported one.
  double kth = 2.0;
  for (int id : answer) {
    for (int i = 0; i < rel.size(); ++i) {
      if (rel.tuple(i).id == id) kth = std::min(kth, probs[static_cast<size_t>(i)]);
    }
  }
  for (int i = 0; i < rel.size(); ++i) {
    const bool reported =
        std::find(answer.begin(), answer.end(), rel.tuple(i).id) !=
        answer.end();
    if (!reported) {
      EXPECT_LE(probs[static_cast<size_t>(i)], kth + 1e-9);
    }
  }
}

// PT-k through QueryEngine::Run with QueryRequest::prune at `threshold`.
QueryRequest PTkRequest(int k, double threshold,
                        TiePolicy ties = TiePolicy::kBreakByIndex) {
  QueryRequest request = testing_util::Request(RankingSemantics::kPTk, k, ties);
  request.options.threshold = threshold;
  return request;
}

TEST(TuplePTkPrunedTest, MatchesUnprunedOnPaperExample) {
  for (double threshold : {0.1, 0.3, 0.5, 0.9}) {
    SCOPED_TRACE(::testing::Message() << "threshold " << threshold);
    const QueryStats stats = testing_util::ExpectPruneMatchesUnpruned(
        PaperFig4(), PTkRequest(2, threshold));
    EXPECT_LE(stats.tuples_scanned, 4);
  }
}

TEST(TuplePTkPrunedTest, MatchesUnprunedOnRandomInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    TupleRelation rel = testing_util::RandomSmallTuple(rng, 10);
    for (int k : {1, 3, 6}) {
      for (double threshold : {0.05, 0.3, 0.7}) {
        for (TiePolicy ties :
             {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
          SCOPED_TRACE(::testing::Message() << "k=" << k
                                            << " p=" << threshold);
          testing_util::ExpectPruneMatchesUnpruned(
              rel, PTkRequest(k, threshold, ties));
        }
      }
    }
  }
}

TEST(TuplePTkPrunedTest, StopsEarlyOnLargeRelations) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.5;
  config.seed = 12;
  TupleRelation rel = GenerateTupleRelation(config);
  const QueryStats stats =
      testing_util::ExpectPruneMatchesUnpruned(rel, PTkRequest(20, 0.5));
  EXPECT_GT(stats.tuples_scanned, 0);
  EXPECT_LT(stats.tuples_scanned, rel.size() / 10);
}

TEST(TuplePTkPrunedTest, HigherThresholdPrunesEarlier) {
  TupleGenConfig config;
  config.num_tuples = 5000;
  config.prob_lo = 0.3;
  config.seed = 13;
  const QueryEngine engine{GenerateTupleRelation(config)};
  QueryRequest low = PTkRequest(20, 0.05);
  low.prune = true;
  QueryRequest high = PTkRequest(20, 0.8);
  high.prune = true;
  const QueryResult low_result = engine.Run(low);
  const QueryResult high_result = engine.Run(high);
  ASSERT_TRUE(low_result.status.ok());
  ASSERT_TRUE(high_result.status.ok());
  EXPECT_GT(high_result.stats.tuples_scanned, 0);
  EXPECT_LE(high_result.stats.tuples_scanned,
            low_result.stats.tuples_scanned);
}

TEST(TuplePTkPrunedDeathTest, RejectsBadArguments) {
  EXPECT_DEATH(TuplePTkPrune(Prepared(PaperFig4()), 0, 0.5),
               "k must be >= 1");
  EXPECT_DEATH(TuplePTkPrune(Prepared(PaperFig4()), 1, 0.0), "threshold");
}

TEST(PTkGlobalTopKDeathTest, RejectsBadArguments) {
  EXPECT_DEATH(AttrPTk(Prepared(PaperFig2()), 1, 0.0), "threshold");
  EXPECT_DEATH(AttrPTk(Prepared(PaperFig2()), 1, 1.5), "threshold");
  EXPECT_DEATH(AttrGlobalTopK(Prepared(PaperFig2()), 0), "k must be >= 1");
  EXPECT_DEATH(TupleGlobalTopK(Prepared(PaperFig4()), -3), "k must be >= 1");
}

}  // namespace
}  // namespace urank
