#include "core/semantics/expected_score.h"

#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;

TEST(AttrExpectedScoresTest, PaperFig2Values) {
  // E[X1] = 100*.4 + 70*.6 = 82; E[X2] = 92*.6 + 80*.4 = 87.2; E[X3] = 85.
  ExpectNearVectors(AttrExpectedScores(Prepared(PaperFig2())),
                    {82.0, 87.2, 85.0},
                    1e-12);
}

TEST(AttrExpectedScoreTopKTest, RanksByExpectedScore) {
  const auto top3 = AttrExpectedScoreTopK(Prepared(PaperFig2()), 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].id, 2);
  EXPECT_EQ(top3[1].id, 3);
  EXPECT_EQ(top3[2].id, 1);
}

TEST(TupleExpectedScoresTest, AbsenceContributesZero) {
  // Expected score is p * v.
  ExpectNearVectors(TupleExpectedScores(Prepared(PaperFig4())),
                    {40.0, 45.0, 80.0, 35.0}, 1e-12);
}

TEST(TupleExpectedScoreTopKTest, RanksByProbabilityWeightedScore) {
  const auto top4 = TupleExpectedScoreTopK(Prepared(PaperFig4()), 4);
  ASSERT_EQ(top4.size(), 4u);
  EXPECT_EQ(top4[0].id, 3);  // 80
  EXPECT_EQ(top4[1].id, 2);  // 45
  EXPECT_EQ(top4[2].id, 1);  // 40
  EXPECT_EQ(top4[3].id, 4);  // 35
}

TEST(ExpectedScoreTest, ValueSensitivityDemonstration) {
  // The paper's critique: an improbable tuple with a huge score dominates.
  TupleRelation rel = TupleRelation::Independent(
      {{0, 1e6, 0.01}, {1, 100.0, 0.99}});
  const auto top1 = TupleExpectedScoreTopK(Prepared(rel), 1);
  EXPECT_EQ(top1[0].id, 0);  // expected score 10000 vs 99
  // Shrinking the outlier score (order preserved!) flips the answer.
  TupleRelation shrunk = TupleRelation::Independent(
      {{0, 101.0, 0.01}, {1, 100.0, 0.99}});
  EXPECT_EQ(TupleExpectedScoreTopK(Prepared(shrunk), 1)[0].id, 1);
}

TEST(ExpectedScoreTest, KClampsToN) {
  EXPECT_EQ(AttrExpectedScoreTopK(Prepared(PaperFig2()), 99).size(), 3u);
}

TEST(ExpectedScoreDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(AttrExpectedScoreTopK(Prepared(PaperFig2()), 0),
               "k must be >= 1");
  EXPECT_DEATH(TupleExpectedScoreTopK(Prepared(PaperFig4()), 0),
               "k must be >= 1");
}

}  // namespace
}  // namespace urank
