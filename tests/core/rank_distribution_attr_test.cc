#include "core/rank_distribution_attr.h"

#include <vector>

#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig2;
using testing_util::RandomSmallAttr;

TEST(AttrRankDistributionTest, PaperFig2T1) {
  // Paper Section 7.1: rank(t1) = {(0, 0.4), (1, 0), (2, 0.6)}.
  ExpectNearVectors(AttrRankDistribution(PaperFig2(), 0), {0.4, 0.0, 0.6},
                    1e-12);
}

TEST(AttrRankDistributionTest, PaperFig2AllTuples) {
  const auto dists = AttrRankDistributions(PaperFig2());
  // t2: mixes {0:.6,1:.4} (X2=92) and {1:.6,2:.4} (X2=80).
  ExpectNearVectors(dists[1], {0.36, 0.48, 0.16}, 1e-12);
  // t3 = 85 always; rank = #{t1>85} + #{t2>85}.
  ExpectNearVectors(dists[2], {0.6 * 0.4, 0.6 * 0.6 + 0.4 * 0.4, 0.4 * 0.6},
                    1e-12);
}

TEST(AttrRankDistributionTest, RowsSumToOne) {
  Rng rng(1);
  AttrRelation rel = RandomSmallAttr(rng, 7, 3);
  for (const auto& row : AttrRankDistributions(rel)) {
    double sum = 0.0;
    for (double p : row) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(AttrRankDistributionTest, MeanMatchesExpectedRank) {
  Rng rng(2);
  AttrRelation rel = RandomSmallAttr(rng, 6, 3);
  const auto dists = AttrRankDistributions(rel, TiePolicy::kBreakByIndex);
  const auto expected_ranks =
      AttrExpectedRanksByEnumeration(rel, TiePolicy::kBreakByIndex);
  for (int i = 0; i < rel.size(); ++i) {
    double mean = 0.0;
    const auto& row = dists[static_cast<size_t>(i)];
    for (size_t r = 0; r < row.size(); ++r) {
      mean += static_cast<double>(r) * row[r];
    }
    EXPECT_NEAR(mean, expected_ranks[static_cast<size_t>(i)], 1e-9);
  }
}

TEST(AttrRankDistributionTest, SingleTuple) {
  AttrRelation rel({{0, {{1.0, 0.3}, {2.0, 0.7}}}});
  ExpectNearVectors(AttrRankDistribution(rel, 0), {1.0}, 1e-12);
}

// The parallel form with the cell gate opened, so even these small
// relations fan out over the pool.
std::vector<std::vector<double>> RunParallel(const AttrRelation& rel,
                                             TiePolicy ties, int threads,
                                             KernelReport* report) {
  ParallelismOptions par;
  par.threads = threads;
  par.min_parallel_cells = 0;
  return AttrRankDistributions(rel, BuildSortedPdfs(rel), ties, par, report);
}

TEST(AttrRankDistributionParallelTest, MatchesSerialBitForBit) {
  Rng rng(7);
  for (int n : {1, 2, 17, 40}) {
    AttrRelation rel = RandomSmallAttr(rng, n, 3);
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      const auto serial = AttrRankDistributions(rel, ties);
      for (int threads : {1, 2, 4, 0}) {
        KernelReport report;
        const auto parallel = RunParallel(rel, ties, threads, &report);
        EXPECT_LE(report.threads_used, ResolveThreads(threads));
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
          EXPECT_EQ(parallel[i], serial[i])
              << "n=" << n << " threads=" << threads << " tuple " << i;
        }
      }
    }
  }
}

TEST(AttrRankDistributionParallelTest, MoreThreadsThanTuples) {
  Rng rng(8);
  AttrRelation rel = RandomSmallAttr(rng, 3, 2);
  KernelReport report;
  const auto parallel =
      RunParallel(rel, TiePolicy::kBreakByIndex, 16, &report);
  EXPECT_EQ(parallel, AttrRankDistributions(rel));
  // One chunk per tuple caps the workers at N.
  EXPECT_LE(report.threads_used, 3);
}

TEST(AttrRankDistributionDeathTest, RejectsBadIndex) {
  EXPECT_DEATH(AttrRankDistribution(PaperFig2(), 3), "out of range");
  EXPECT_DEATH(AttrRankDistribution(PaperFig2(), -1), "out of range");
}

struct AttrDistParam {
  int n;
  int max_s;
  uint64_t seed;
};

class AttrRankDistributionCrossCheck
    : public ::testing::TestWithParam<AttrDistParam> {};

TEST_P(AttrRankDistributionCrossCheck, MatchesEnumeration) {
  const AttrDistParam param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 6; ++trial) {
    AttrRelation rel = RandomSmallAttr(rng, param.n, param.max_s);
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      const auto dp = AttrRankDistributions(rel, ties);
      const auto worlds = AttrRankDistributionsByEnumeration(rel, ties);
      ASSERT_EQ(dp.size(), worlds.size());
      for (size_t i = 0; i < dp.size(); ++i) {
        ExpectNearVectors(dp[i], worlds[i], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AttrRankDistributionCrossCheck,
    ::testing::Values(AttrDistParam{2, 3, 41}, AttrDistParam{4, 2, 42},
                      AttrDistParam{5, 3, 43}, AttrDistParam{7, 2, 44},
                      AttrDistParam{8, 2, 45}));

}  // namespace
}  // namespace urank
