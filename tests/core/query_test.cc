// The answers QueryEngine::Run assembles per semantics on the paper's
// worked examples: ids in rank order, the statistic each entry was ranked
// by, U-kRanks' -1 placeholders and PT-k's top-k probabilities. Also the
// stable semantics names of core/query.h.

#include "core/query.h"

#include <vector>

#include "core/engine/query_engine.h"
#include "core/expected_rank_tuple.h"
#include "core/semantics/global_topk.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;

QueryRequest Request(RankingSemantics semantics, int k) {
  QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  return request;
}

// One query against a freshly prepared engine; fails the test on a
// non-ok status.
template <typename Relation>
RankingAnswer Answer(const Relation& rel, const QueryRequest& request) {
  QueryResult result = QueryEngine(rel).Run(request);
  EXPECT_TRUE(result.status.ok()) << result.status.message;
  return std::move(result.answer);
}

TEST(QueryAnswerTest, ExpectedRankMatchesDirectCall) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer answer =
      Answer(rel, Request(RankingSemantics::kExpectedRank, 4));
  const auto direct =
      TupleExpectedRankTopK(Prepared(rel), 4, TiePolicy::kBreakByIndex);
  ASSERT_EQ(answer.ids.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(answer.ids[i], direct[i].id);
    EXPECT_DOUBLE_EQ(answer.statistics[i], direct[i].statistic);
  }
}

TEST(QueryAnswerTest, MedianAndQuantile) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer median =
      Answer(rel, Request(RankingSemantics::kMedianRank, 4));
  EXPECT_EQ(median.ids, (std::vector<int>{2, 3, 1, 4}));
  QueryRequest quantile = Request(RankingSemantics::kQuantileRank, 4);
  quantile.options.phi = 0.5;
  EXPECT_EQ(Answer(rel, quantile).ids, median.ids);
}

TEST(QueryAnswerTest, UTopkCarriesAnswerProbability) {
  const AttrRelation rel = PaperFig2();
  const RankingAnswer answer =
      Answer(rel, Request(RankingSemantics::kUTopk, 2));
  EXPECT_EQ(answer.ids, (std::vector<int>{2, 3}));
  ASSERT_EQ(answer.statistics.size(), 2u);
  EXPECT_NEAR(answer.statistics[0], 0.36, 1e-12);
}

TEST(QueryAnswerTest, UKRanksKeepsPlaceholders) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer answer =
      Answer(rel, Request(RankingSemantics::kUKRanks, 4));
  ASSERT_EQ(answer.ids.size(), 4u);
  EXPECT_EQ(answer.ids[3], -1);
  EXPECT_TRUE(answer.statistics.empty());
}

TEST(QueryAnswerTest, PTkStatisticsAreTopKProbabilities) {
  const AttrRelation rel = PaperFig2();
  QueryRequest request = Request(RankingSemantics::kPTk, 2);
  request.options.threshold = 0.4;
  const RankingAnswer answer = Answer(rel, request);
  ASSERT_EQ(answer.ids.size(), 3u);  // t2, t3, t1 by top-2 probability
  EXPECT_EQ(answer.ids[0], 2);
  EXPECT_NEAR(answer.statistics[0], 0.84, 1e-12);
  EXPECT_NEAR(answer.statistics[2], 0.4, 1e-12);
  // Every reported probability clears the threshold.
  for (double p : answer.statistics) EXPECT_GE(p, 0.4);
}

TEST(QueryAnswerTest, GlobalTopkMatchesDirectCall) {
  const TupleRelation rel = PaperFig4();
  const RankingAnswer answer =
      Answer(rel, Request(RankingSemantics::kGlobalTopk, 2));
  EXPECT_EQ(answer.ids, TupleGlobalTopK(Prepared(rel), 2));
  ASSERT_EQ(answer.statistics.size(), 2u);
  EXPECT_NEAR(answer.statistics[0], 0.8, 1e-12);  // t3's top-2 probability
  EXPECT_NEAR(answer.statistics[1], 0.5, 1e-12);  // t2's
}

TEST(QueryAnswerTest, ExpectedScoreNegatedStatistic) {
  const AttrRelation rel = PaperFig2();
  const RankingAnswer answer =
      Answer(rel, Request(RankingSemantics::kExpectedScore, 1));
  EXPECT_EQ(answer.ids, (std::vector<int>{2}));
  EXPECT_NEAR(answer.statistics[0], -87.2, 1e-12);
}

TEST(QueryAnswerTest, AllSemanticsRunOnBothModels) {
  const AttrRelation arel = PaperFig2();
  const TupleRelation trel = PaperFig4();
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
        RankingSemantics::kUKRanks, RankingSemantics::kPTk,
        RankingSemantics::kGlobalTopk, RankingSemantics::kExpectedScore}) {
    const RankingAnswer a = Answer(arel, Request(semantics, 2));
    const RankingAnswer t = Answer(trel, Request(semantics, 2));
    EXPECT_FALSE(a.ids.empty()) << ToString(semantics);
    EXPECT_FALSE(t.ids.empty()) << ToString(semantics);
  }
}

TEST(QueryAnswerTest, SparseIdsAreHandled) {
  // Non-dense, large ids exercise the id->position lookup.
  const TupleRelation rel = TupleRelation::Independent(
      {{1000, 30.0, 0.9}, {5, 20.0, 0.8}, {70, 10.0, 0.7}});
  const RankingAnswer answer =
      Answer(rel, Request(RankingSemantics::kGlobalTopk, 2));
  ASSERT_EQ(answer.ids.size(), 2u);
  EXPECT_EQ(answer.ids[0], 1000);
  EXPECT_GT(answer.statistics[0], 0.0);
}

TEST(ToStringTest, AllNames) {
  EXPECT_STREQ(ToString(RankingSemantics::kExpectedRank), "expected-rank");
  EXPECT_STREQ(ToString(RankingSemantics::kMedianRank), "median-rank");
  EXPECT_STREQ(ToString(RankingSemantics::kQuantileRank), "quantile-rank");
  EXPECT_STREQ(ToString(RankingSemantics::kUTopk), "u-topk");
  EXPECT_STREQ(ToString(RankingSemantics::kUKRanks), "u-kranks");
  EXPECT_STREQ(ToString(RankingSemantics::kPTk), "pt-k");
  EXPECT_STREQ(ToString(RankingSemantics::kGlobalTopk), "global-topk");
  EXPECT_STREQ(ToString(RankingSemantics::kExpectedScore), "expected-score");
}

}  // namespace
}  // namespace urank
