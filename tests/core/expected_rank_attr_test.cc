#include "core/expected_rank_attr.h"

#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig2;
using testing_util::Prepared;
using testing_util::RandomSmallAttr;

TEST(AttrExpectedRanksTest, PaperFig2Values) {
  // Paper Section 4.3: r(t1) = 1.2, r(t2) = 0.8, r(t3) = 1.0.
  const std::vector<double> ranks = AttrExpectedRanks(Prepared(PaperFig2()));
  ExpectNearVectors(ranks, {1.2, 0.8, 1.0}, 1e-12);
}

TEST(AttrExpectedRanksTest, PaperFig2TopK) {
  // Final ranking (t2, t3, t1).
  const auto top3 = AttrExpectedRankTopK(Prepared(PaperFig2()), 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].id, 2);
  EXPECT_EQ(top3[1].id, 3);
  EXPECT_EQ(top3[2].id, 1);
  const auto top1 = AttrExpectedRankTopK(Prepared(PaperFig2()), 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].id, 2);
}

TEST(AttrExpectedRanksTest, BruteForceMatchesPaperToo) {
  ExpectNearVectors(AttrExpectedRanksBruteForce(PaperFig2()),
                    {1.2, 0.8, 1.0}, 1e-12);
}

TEST(AttrExpectedRanksTest, CertainDataReducesToSortOrder) {
  // Deterministic scores: expected rank = number of higher-scored tuples.
  AttrRelation rel({
      {0, {{50.0, 1.0}}},
      {1, {{90.0, 1.0}}},
      {2, {{70.0, 1.0}}},
  });
  ExpectNearVectors(AttrExpectedRanks(Prepared(rel)), {2.0, 0.0, 1.0}, 1e-12);
}

TEST(AttrExpectedRanksTest, SingleTupleHasRankZero) {
  AttrRelation rel({{7, {{3.0, 0.5}, {9.0, 0.5}}}});
  ExpectNearVectors(AttrExpectedRanks(Prepared(rel)), {0.0}, 1e-12);
}

TEST(AttrExpectedRanksTest, EmptyRelation) {
  EXPECT_TRUE(AttrExpectedRanks(Prepared(AttrRelation())).empty());
}

TEST(AttrExpectedRanksTest, IdenticalTuplesTieUnderStrictPolicy) {
  // Two identical pdfs: each outranks the other with probability
  // Pr[X > Y] = 0.25 (strict), so both expected ranks are 0.25.
  AttrRelation rel({
      {0, {{1.0, 0.5}, {2.0, 0.5}}},
      {1, {{1.0, 0.5}, {2.0, 0.5}}},
  });
  ExpectNearVectors(AttrExpectedRanks(Prepared(rel), TiePolicy::kStrictGreater),
                    {0.25, 0.25}, 1e-12);
  // By-index: ties go to the earlier tuple, so t0 gains nothing and t1
  // additionally loses the 0.5 tie mass.
  ExpectNearVectors(AttrExpectedRanks(Prepared(rel), TiePolicy::kBreakByIndex),
                    {0.25, 0.75}, 1e-12);
}

struct CrossCheckParam {
  int n;
  int max_s;
  uint64_t seed;
};

class AttrExpectedRankCrossCheck
    : public ::testing::TestWithParam<CrossCheckParam> {};

TEST_P(AttrExpectedRankCrossCheck, FastEqualsBruteForceEqualsEnumeration) {
  const CrossCheckParam param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 8; ++trial) {
    AttrRelation rel = RandomSmallAttr(rng, param.n, param.max_s);
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      const std::vector<double> fast = AttrExpectedRanks(Prepared(rel), ties);
      const std::vector<double> brute = AttrExpectedRanksBruteForce(rel, ties);
      const std::vector<double> worlds =
          AttrExpectedRanksByEnumeration(rel, ties);
      ExpectNearVectors(fast, brute, 1e-9);
      ExpectNearVectors(fast, worlds, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AttrExpectedRankCrossCheck,
    ::testing::Values(CrossCheckParam{1, 3, 11}, CrossCheckParam{2, 2, 12},
                      CrossCheckParam{4, 3, 13}, CrossCheckParam{6, 2, 14},
                      CrossCheckParam{7, 3, 15}, CrossCheckParam{8, 2, 16}));

TEST(AttrExpectedRanksTest, SumOfRanksIsInvariant) {
  // Σ_i r(t_i) = Σ_{i≠j} Pr[X_j > X_i]; under kBreakByIndex every ordered
  // pair resolves exactly one way, so the sum is N(N-1)/2.
  Rng rng(20);
  AttrRelation rel = RandomSmallAttr(rng, 7, 3);
  const std::vector<double> ranks =
      AttrExpectedRanks(Prepared(rel), TiePolicy::kBreakByIndex);
  double sum = 0.0;
  for (double r : ranks) sum += r;
  EXPECT_NEAR(sum, 7.0 * 6.0 / 2.0, 1e-9);
}

TEST(AttrExpectedRankTopKTest, KLargerThanNReturnsAll) {
  const auto all = AttrExpectedRankTopK(Prepared(PaperFig2()), 10);
  EXPECT_EQ(all.size(), 3u);
}

TEST(AttrExpectedRankTopKTest, StatisticsAreSorted) {
  Rng rng(21);
  AttrRelation rel = RandomSmallAttr(rng, 8, 3);
  const auto topk = AttrExpectedRankTopK(Prepared(rel), 5);
  for (size_t i = 1; i < topk.size(); ++i) {
    EXPECT_LE(topk[i - 1].statistic, topk[i].statistic);
  }
}

TEST(AttrExpectedRankTopKDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(AttrExpectedRankTopK(Prepared(PaperFig2()), 0),
               "k must be >= 1");
}

}  // namespace
}  // namespace urank
