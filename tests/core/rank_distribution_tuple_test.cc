#include "core/rank_distribution_tuple.h"

#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig4;
using testing_util::RandomSmallTuple;

TEST(TupleRankDistributionTest, PaperFig4T4) {
  // Paper Section 7.1: rank(t4) = {(0,0), (1,0.3), (2,0.5), (3,0.2)}.
  const auto dists = TupleRankDistributions(PaperFig4());
  ExpectNearVectors(dists[3], {0.0, 0.3, 0.5, 0.2, 0.0}, 1e-12);
}

TEST(TupleRankDistributionTest, PaperFig4AllTuples) {
  const auto dists = TupleRankDistributions(PaperFig4());
  // t1: present (.4) -> rank 0; absent -> |W| of worlds w3 (.3, size 2)
  // and w4 (.3, size 2): rank 2.
  ExpectNearVectors(dists[0], {0.4, 0.0, 0.6, 0.0, 0.0}, 1e-12);
  // t3 (p=1): rank = #appearing higher-scored of t1, t2.
  ExpectNearVectors(dists[2], {0.3, 0.5, 0.2, 0.0, 0.0}, 1e-12);
}

TEST(TupleRankDistributionTest, RowsSumToOne) {
  Rng rng(1);
  TupleRelation rel = RandomSmallTuple(rng, 9);
  for (const auto& row : TupleRankDistributions(rel)) {
    double sum = 0.0;
    for (double p : row) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(TuplePositionalProbabilitiesTest, RowsSumToPresenceProbability) {
  Rng rng(2);
  TupleRelation rel = RandomSmallTuple(rng, 9);
  const auto pos = TuplePositionalProbabilities(rel);
  for (int i = 0; i < rel.size(); ++i) {
    double sum = 0.0;
    for (double p : pos[static_cast<size_t>(i)]) sum += p;
    EXPECT_NEAR(sum, rel.tuple(i).prob, 1e-9);
  }
}

TEST(TuplePositionalProbabilitiesTest, CertainIndependentTuples) {
  TupleRelation rel = TupleRelation::Independent(
      {{0, 30.0, 1.0}, {1, 20.0, 1.0}, {2, 10.0, 1.0}});
  const auto pos = TuplePositionalProbabilities(rel);
  for (int i = 0; i < 3; ++i) {
    for (int r = 0; r <= 3; ++r) {
      EXPECT_NEAR(pos[static_cast<size_t>(i)][static_cast<size_t>(r)],
                  r == i ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(TupleRankDistributionTest, MeanMatchesExpectedRank) {
  Rng rng(3);
  TupleRelation rel = RandomSmallTuple(rng, 8);
  const auto dists = TupleRankDistributions(rel, TiePolicy::kBreakByIndex);
  const auto expected =
      TupleExpectedRanksByEnumeration(rel, TiePolicy::kBreakByIndex);
  for (int i = 0; i < rel.size(); ++i) {
    double mean = 0.0;
    const auto& row = dists[static_cast<size_t>(i)];
    for (size_t r = 0; r < row.size(); ++r) {
      mean += static_cast<double>(r) * row[r];
    }
    EXPECT_NEAR(mean, expected[static_cast<size_t>(i)], 1e-9);
  }
}

TEST(TupleRankDistributionTest, StreamingFormAgreesWithMatrixForm) {
  Rng rng(4);
  TupleRelation rel = RandomSmallTuple(rng, 10);
  const auto matrix = TupleRankDistributions(rel);
  int visited = 0;
  ForEachTupleRankDistribution(
      rel, TiePolicy::kBreakByIndex,
      [&](int i, std::span<const double> dist) {
        ++visited;
        ExpectNearVectors(dist, matrix[static_cast<size_t>(i)], 1e-12);
      });
  EXPECT_EQ(visited, rel.size());
}

// `n` is 64 bits wide so the struct has no padding: GoogleTest prints the
// parameter's raw bytes into the test name, and uninitialised padding would
// make that name differ from run to run.
struct TupleDistParam {
  int64_t n;
  uint64_t seed;
};

class TupleRankDistributionCrossCheck
    : public ::testing::TestWithParam<TupleDistParam> {};

TEST_P(TupleRankDistributionCrossCheck, MatchesEnumeration) {
  const TupleDistParam param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 6; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, static_cast<int>(param.n));
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      const auto dp = TupleRankDistributions(rel, ties);
      const auto worlds = TupleRankDistributionsByEnumeration(rel, ties);
      ASSERT_EQ(dp.size(), worlds.size());
      for (size_t i = 0; i < dp.size(); ++i) {
        ExpectNearVectors(dp[i], worlds[i], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TupleRankDistributionCrossCheck,
    ::testing::Values(TupleDistParam{1, 51}, TupleDistParam{3, 52},
                      TupleDistParam{5, 53}, TupleDistParam{8, 54},
                      TupleDistParam{10, 55}));

class TuplePositionalCrossCheck
    : public ::testing::TestWithParam<TupleDistParam> {};

TEST_P(TuplePositionalCrossCheck, MatchesEnumeration) {
  const TupleDistParam param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 6; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, static_cast<int>(param.n));
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      const auto dp = TuplePositionalProbabilities(rel, ties);
      // Enumerate: Pr[present and rank r].
      std::vector<std::vector<double>> worlds(
          static_cast<size_t>(rel.size()),
          std::vector<double>(static_cast<size_t>(rel.size()) + 1, 0.0));
      ForEachTupleWorld(rel, [&](const std::vector<bool>& present,
                                 double prob) {
        for (int i = 0; i < rel.size(); ++i) {
          if (!present[static_cast<size_t>(i)]) continue;
          worlds[static_cast<size_t>(i)][static_cast<size_t>(
              RankInTupleWorld(rel, present, i, ties))] += prob;
        }
      });
      for (size_t i = 0; i < dp.size(); ++i) {
        ExpectNearVectors(dp[i], worlds[i], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TuplePositionalCrossCheck,
    ::testing::Values(TupleDistParam{2, 61}, TupleDistParam{4, 62},
                      TupleDistParam{7, 63}, TupleDistParam{9, 64}));

}  // namespace
}  // namespace urank
