#include <algorithm>
#include <vector>

#include "core/expected_rank_attr.h"
#include "gen/attr_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rank_metrics.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::Prepared;
using testing_util::RandomSmallAttr;

TEST(AttrPruneTest, PaperFig2TopOne) {
  const PrunedTopKResult result =
      AttrExpectedRankTopKPrune(Prepared(PaperFig2()), 1);
  ASSERT_EQ(result.topk.size(), 1u);
  EXPECT_EQ(result.topk[0].id, 2);
  EXPECT_LE(result.tuples_scanned, 3);
  EXPECT_GE(result.tuples_scanned, 1);
}

TEST(AttrPruneTest, FullScanEqualsExactAnswer) {
  // When pruning never fires (tiny relation), the curtailed prefix is the
  // whole relation and the answer is exact.
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    AttrRelation rel = RandomSmallAttr(rng, 6, 3);
    const auto exact = AttrExpectedRankTopK(Prepared(rel), 3);
    const PrunedTopKResult pruned =
        AttrExpectedRankTopKPrune(Prepared(rel), 3);
    if (pruned.tuples_scanned == rel.size()) {
      ASSERT_EQ(pruned.topk.size(), exact.size());
      for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ(pruned.topk[i].id, exact[i].id);
      }
    }
  }
}

TEST(AttrPruneTest, AccessesNeverExceedN) {
  AttrGenConfig config;
  config.num_tuples = 400;
  config.seed = 3;
  AttrRelation rel = GenerateAttrRelation(config);
  for (int k : {1, 5, 20}) {
    const PrunedTopKResult result =
        AttrExpectedRankTopKPrune(Prepared(rel), k);
    EXPECT_LE(result.tuples_scanned, rel.size());
    EXPECT_GE(result.tuples_scanned, std::min(k, rel.size()));
    EXPECT_EQ(static_cast<int>(result.topk.size()),
              std::min(k, rel.size()));
  }
}

TEST(AttrPruneTest, PrunesOnConcentratedScores) {
  // Tuples with well-separated expected scores and tight pdfs: the Markov
  // bounds lock in the answer long before the scan ends.
  std::vector<AttrTuple> tuples;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const double centre = 1000.0 - i;  // descending, far above zero spread
    tuples.push_back(
        {i, {{centre - 0.1, 0.5}, {centre + 0.1, 0.5}}});
  }
  AttrRelation rel(std::move(tuples));
  const PrunedTopKResult result =
      AttrExpectedRankTopKPrune(Prepared(rel), 5);
  EXPECT_LT(result.tuples_scanned, rel.size());
  // The surrogate answer must match the exact top-5 here.
  const auto exact = AttrExpectedRankTopK(Prepared(rel), 5);
  ASSERT_EQ(result.topk.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(result.topk[i].id, exact[i].id);
  }
}

TEST(AttrPruneTest, SurrogateQualityIsHighOnGeneratedData) {
  AttrGenConfig config;
  config.num_tuples = 600;
  config.value_spread = 20.0;
  config.seed = 7;
  AttrRelation rel = GenerateAttrRelation(config);
  const int k = 10;
  const auto exact = IdsOf(AttrExpectedRankTopK(Prepared(rel), k));
  const PrunedTopKResult pruned =
      AttrExpectedRankTopKPrune(Prepared(rel), k);
  EXPECT_GE(RecallAgainst(IdsOf(pruned.topk), exact), 0.8);
}

TEST(AttrPruneTest, SingleTuple) {
  AttrRelation rel({{0, {{5.0, 1.0}}}});
  const PrunedTopKResult result =
      AttrExpectedRankTopKPrune(Prepared(rel), 1);
  ASSERT_EQ(result.topk.size(), 1u);
  EXPECT_EQ(result.topk[0].id, 0);
  EXPECT_EQ(result.tuples_scanned, 1);
}

TEST(AttrPruneClampedTest, NeverAccessesMoreThanFaithful) {
  AttrGenConfig config;
  config.num_tuples = 500;
  config.pdf_size = 4;
  for (uint64_t seed : {21, 22, 23}) {
    config.seed = seed;
    AttrRelation rel = GenerateAttrRelation(config);
    const PreparedAttrRelation prepared = Prepared(rel);
    for (int k : {1, 10, 40}) {
      const PrunedTopKResult faithful =
          AttrExpectedRankTopKPrune(prepared, k, /*clamp_tail_bounds=*/false);
      const PrunedTopKResult clamped =
          AttrExpectedRankTopKPrune(prepared, k, /*clamp_tail_bounds=*/true);
      EXPECT_LE(clamped.tuples_scanned, faithful.tuples_scanned)
          << "seed=" << seed << " k=" << k;
      // Both surrogates stay close to the exact answer.
      const auto exact = IdsOf(AttrExpectedRankTopK(prepared, k));
      EXPECT_GE(RecallAgainst(IdsOf(clamped.topk), exact), 0.6);
    }
  }
}

TEST(AttrPruneClampedTest, FullScanStillExact) {
  Rng rng(30);
  for (int trial = 0; trial < 10; ++trial) {
    AttrRelation rel = RandomSmallAttr(rng, 6, 3);
    const auto exact = AttrExpectedRankTopK(Prepared(rel), 3);
    const PrunedTopKResult pruned =
        AttrExpectedRankTopKPrune(Prepared(rel), 3,
                                  /*clamp_tail_bounds=*/true);
    if (pruned.tuples_scanned == rel.size()) {
      ASSERT_EQ(pruned.topk.size(), exact.size());
      for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ(pruned.topk[i].id, exact[i].id);
      }
    }
  }
}

TEST(AttrPruneDeathTest, RejectsNonPositiveScores) {
  AttrRelation rel({{0, {{0.0, 0.5}, {2.0, 0.5}}}});
  EXPECT_DEATH(AttrExpectedRankTopKPrune(Prepared(rel), 1),
               "positive scores");
}

TEST(AttrPruneDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(AttrExpectedRankTopKPrune(Prepared(PaperFig2()), 0),
               "k must be >= 1");
}

class AttrPruneSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AttrPruneSweep, SurrogateContainsMostOfExactTopK) {
  AttrGenConfig config;
  config.num_tuples = 300;
  config.pdf_size = 3;
  config.value_spread = 10.0;
  config.seed = GetParam();
  AttrRelation rel = GenerateAttrRelation(config);
  for (int k : {1, 5, 15}) {
    const auto exact = IdsOf(AttrExpectedRankTopK(Prepared(rel), k));
    const PrunedTopKResult pruned =
        AttrExpectedRankTopKPrune(Prepared(rel), k);
    EXPECT_EQ(pruned.topk.size(), exact.size());
    EXPECT_GE(RecallAgainst(IdsOf(pruned.topk), exact), 0.6)
        << "k=" << k << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttrPruneSweep,
                         ::testing::Values(101, 102, 103, 104, 105));

}  // namespace
}  // namespace urank
