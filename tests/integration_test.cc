// End-to-end tests across the whole stack: generate realistic workloads,
// run every ranking definition, and check cross-algorithm invariants at
// sizes well beyond the unit tests.

#include <algorithm>
#include <vector>

#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "core/semantics/expected_score.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/semantics.h"
#include "core/semantics/u_kranks.h"
#include "core/semantics/u_topk.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rank_metrics.h"

namespace urank {
namespace {

using testing_util::Prepared;

TEST(IntegrationTest, AttrPipelineAtScale) {
  AttrGenConfig config;
  config.num_tuples = 3000;
  config.pdf_size = 5;
  config.seed = 11;
  AttrRelation rel = GenerateAttrRelation(config);

  const std::vector<double> fast = AttrExpectedRanks(Prepared(rel));
  const std::vector<double> brute = AttrExpectedRanksBruteForce(rel);
  ASSERT_EQ(fast.size(), brute.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast[i], brute[i], 1e-6);
  }

  const PreparedAttrRelation prepared = Prepared(rel);
  const auto topk = AttrExpectedRankTopK(prepared, 20);
  EXPECT_EQ(topk.size(), 20u);
  const PrunedTopKResult pruned = AttrExpectedRankTopKPrune(prepared, 20);
  EXPECT_LE(pruned.tuples_scanned, rel.size());
  EXPECT_GE(RecallAgainst(IdsOf(pruned.topk), IdsOf(topk)), 0.7);
}

TEST(IntegrationTest, TuplePipelineAtScale) {
  TupleGenConfig config;
  config.num_tuples = 20000;
  config.multi_rule_fraction = 0.4;
  config.max_rule_size = 4;
  config.seed = 12;
  TupleRelation rel = GenerateTupleRelation(config);

  const std::vector<double> fast = TupleExpectedRanks(Prepared(rel));
  const std::vector<double> brute = TupleExpectedRanksBruteForce(rel);
  for (size_t i = 0; i < fast.size(); i += 97) {  // spot-check
    ASSERT_NEAR(fast[i], brute[i], 1e-6);
  }

  // T-ERank-Prune through the engine: the exact top-50, bit for bit.
  const QueryStats pruned = testing_util::ExpectPruneMatchesUnpruned(
      rel, testing_util::Request(RankingSemantics::kExpectedRank, 50,
                                 TiePolicy::kStrictGreater));
  EXPECT_GT(pruned.tuples_scanned, 0);
  EXPECT_LT(pruned.tuples_scanned, rel.size());
}

TEST(IntegrationTest, RankSemanticsFamilyAgreesOnDominantTuple) {
  // A tuple that certainly has the highest score must be ranked first by
  // every sensible definition.
  std::vector<TLTuple> tuples;
  tuples.push_back({0, 1000.0, 1.0});
  for (int i = 1; i < 200; ++i) {
    tuples.push_back({i, 500.0 - i, 0.5});
  }
  TupleRelation rel = TupleRelation::Independent(std::move(tuples));
  EXPECT_EQ(TupleExpectedRankTopK(Prepared(rel), 1)[0].id, 0);
  EXPECT_EQ(TupleQuantileRankTopK(Prepared(rel), 1, 0.5)[0].id, 0);
  EXPECT_EQ(TupleGlobalTopK(Prepared(rel), 1)[0], 0);
  EXPECT_EQ(TupleUKRanks(Prepared(rel), 1)[0], 0);
  EXPECT_EQ(TupleUTopK(Prepared(rel), 1).ids, (std::vector<int>{0}));
  EXPECT_EQ(TupleExpectedScoreTopK(Prepared(rel), 1)[0].id, 0);
}

TEST(IntegrationTest, ExpectedAndMedianRanksCorrelateOnGeneratedData) {
  TupleGenConfig config;
  config.num_tuples = 300;
  config.seed = 13;
  TupleRelation rel = GenerateTupleRelation(config);
  const int k = 30;
  const auto er = IdsOf(TupleExpectedRankTopK(Prepared(rel), k));
  const auto mr = IdsOf(TupleQuantileRankTopK(Prepared(rel), k, 0.5));
  EXPECT_GE(TopKOverlap(er, mr), 0.5);
}

TEST(IntegrationTest, KendallDistanceBetweenSemanticsIsWellFormed) {
  TupleGenConfig config;
  config.num_tuples = 120;
  config.seed = 14;
  TupleRelation rel = GenerateTupleRelation(config);
  const int n = rel.size();
  const auto er = IdsOf(TupleExpectedRankTopK(Prepared(rel), n));
  const auto mr = IdsOf(TupleQuantileRankTopK(Prepared(rel), n, 0.5));
  const auto es = IdsOf(TupleExpectedScoreTopK(Prepared(rel), n));
  const double d_er_mr = KendallTauDistance(er, mr);
  const double d_er_es = KendallTauDistance(er, es);
  EXPECT_GE(d_er_mr, 0.0);
  EXPECT_LE(d_er_mr, 1.0);
  EXPECT_GE(d_er_es, 0.0);
  EXPECT_LE(d_er_es, 1.0);
  // Expected rank should be closer to median rank than to a random
  // shuffle; sanity bound only.
  EXPECT_LT(d_er_mr, 0.4);
}

TEST(IntegrationTest, PTkThresholdSweepNestsAnswers) {
  TupleGenConfig config;
  config.num_tuples = 150;
  config.seed = 15;
  TupleRelation rel = GenerateTupleRelation(config);
  std::vector<int> prev;
  bool first = true;
  for (double threshold : {0.9, 0.7, 0.5, 0.3, 0.1}) {
    std::vector<int> cur = TuplePTk(Prepared(rel), 10, threshold);
    std::sort(cur.begin(), cur.end());
    if (!first) {
      // Lower thresholds can only add tuples.
      EXPECT_TRUE(std::includes(cur.begin(), cur.end(), prev.begin(),
                                prev.end()));
    }
    prev = std::move(cur);
    first = false;
  }
}

TEST(IntegrationTest, QuantileRanksBoundExpectedRankNeighbourhood) {
  // r_0.25 <= r_0.5 <= r_0.75 and the expected rank sits within
  // [min rank, max rank] of the distribution; spot-check consistency on a
  // mid-size generated instance.
  TupleGenConfig config;
  config.num_tuples = 400;
  config.seed = 16;
  TupleRelation rel = GenerateTupleRelation(config);
  const auto q25 = TupleQuantileRanks(Prepared(rel), 0.25);
  const auto q75 = TupleQuantileRanks(Prepared(rel), 0.75);
  const auto er = TupleExpectedRanks(Prepared(rel), TiePolicy::kBreakByIndex);
  int er_within = 0;
  for (int i = 0; i < rel.size(); ++i) {
    ASSERT_LE(q25[static_cast<size_t>(i)], q75[static_cast<size_t>(i)]);
    if (er[static_cast<size_t>(i)] >= q25[static_cast<size_t>(i)] - 1.0 &&
        er[static_cast<size_t>(i)] <= q75[static_cast<size_t>(i)] + 1.0) {
      ++er_within;
    }
  }
  // The mean usually lies near the inter-quartile range.
  EXPECT_GT(er_within, rel.size() / 2);
}

TEST(IntegrationTest, ZipfWorkloadEndToEnd) {
  AttrGenConfig config;
  config.num_tuples = 1000;
  config.score_dist = ScoreDistribution::kZipf;
  config.zipf_theta = 1.1;
  config.seed = 17;
  AttrRelation rel = GenerateAttrRelation(config);
  const auto topk = AttrExpectedRankTopK(Prepared(rel), 10);
  EXPECT_EQ(topk.size(), 10u);
  // Sanity: the best expected rank beats the relation's average.
  EXPECT_LT(topk[0].statistic, rel.size() / 2.0);
}

}  // namespace
}  // namespace urank
