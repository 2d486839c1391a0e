#include "core/quantile_rank.h"

#include <vector>

#include "gtest/gtest.h"
#include "core/expected_rank_tuple.h"
#include "core/rank_distribution_tuple.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallAttr;
using testing_util::RandomSmallTuple;

TEST(QuantileFromPmfTest, Basics) {
  const std::vector<double> pmf = {0.2, 0.3, 0.5};
  EXPECT_EQ(QuantileFromPmf(pmf, 0.1), 0);
  EXPECT_EQ(QuantileFromPmf(pmf, 0.2), 0);
  EXPECT_EQ(QuantileFromPmf(pmf, 0.21), 1);
  EXPECT_EQ(QuantileFromPmf(pmf, 0.5), 1);
  EXPECT_EQ(QuantileFromPmf(pmf, 0.51), 2);
  EXPECT_EQ(QuantileFromPmf(pmf, 1.0), 2);
}

TEST(QuantileFromPmfTest, PointMass) {
  EXPECT_EQ(QuantileFromPmf({0.0, 1.0, 0.0}, 0.5), 1);
  EXPECT_EQ(QuantileFromPmf({1.0}, 0.001), 0);
}

TEST(QuantileFromPmfTest, RoundOffGuard) {
  // cdf tops out at 0.999999...: the last index is returned.
  EXPECT_EQ(QuantileFromPmf({0.5, 0.4999999999}, 1.0), 1);
}

TEST(QuantileFromPmfDeathTest, RejectsBadArguments) {
  EXPECT_DEATH(QuantileFromPmf({1.0}, 0.0), "phi");
  EXPECT_DEATH(QuantileFromPmf({1.0}, 1.5), "phi");
  EXPECT_DEATH(QuantileFromPmf(std::vector<double>{}, 0.5), "non-empty");
}

TEST(MedianRankTest, PaperFig2Values) {
  // Paper Section 7.1: r_m(t1) = 2, r_m(t2) = 1, r_m(t3) = 1;
  // final ranking (t2, t3, t1).
  const PreparedAttrRelation fig2 = Prepared(PaperFig2());
  const std::vector<int> medians = AttrQuantileRanks(fig2, 0.5);
  EXPECT_EQ(medians, (std::vector<int>{2, 1, 1}));
  const auto topk = AttrQuantileRankTopK(fig2, 3, 0.5);
  ASSERT_EQ(topk.size(), 3u);
  EXPECT_EQ(topk[0].id, 2);
  EXPECT_EQ(topk[1].id, 3);
  EXPECT_EQ(topk[2].id, 1);
}

TEST(MedianRankTest, PaperFig4Values) {
  // Paper Section 7.1: r_m(t1) = 2, r_m(t2) = 1, r_m(t3) = 1, r_m(t4) = 2;
  // final ranking (t2, t3, t1, t4).
  const PreparedTupleRelation fig4 = Prepared(PaperFig4());
  const std::vector<int> medians = TupleQuantileRanks(fig4, 0.5);
  EXPECT_EQ(medians, (std::vector<int>{2, 1, 1, 2}));
  const auto topk = TupleQuantileRankTopK(fig4, 4, 0.5);
  ASSERT_EQ(topk.size(), 4u);
  EXPECT_EQ(topk[0].id, 2);
  EXPECT_EQ(topk[1].id, 3);
  EXPECT_EQ(topk[2].id, 1);
  EXPECT_EQ(topk[3].id, 4);
}

TEST(QuantileRankTest, MonotoneInPhi) {
  Rng rng(1);
  AttrRelation arel = RandomSmallAttr(rng, 6, 3);
  const PreparedAttrRelation aprep = Prepared(arel);
  const auto q25 = AttrQuantileRanks(aprep, 0.25);
  const auto q50 = AttrQuantileRanks(aprep, 0.5);
  const auto q75 = AttrQuantileRanks(aprep, 0.75);
  for (int i = 0; i < arel.size(); ++i) {
    EXPECT_LE(q25[static_cast<size_t>(i)], q50[static_cast<size_t>(i)]);
    EXPECT_LE(q50[static_cast<size_t>(i)], q75[static_cast<size_t>(i)]);
  }
  TupleRelation trel = RandomSmallTuple(rng, 7);
  const PreparedTupleRelation tprep = Prepared(trel);
  const auto t25 = TupleQuantileRanks(tprep, 0.25);
  const auto t75 = TupleQuantileRanks(tprep, 0.75);
  for (int i = 0; i < trel.size(); ++i) {
    EXPECT_LE(t25[static_cast<size_t>(i)], t75[static_cast<size_t>(i)]);
  }
}

TEST(QuantileRankTest, MatchesEnumerationQuantiles) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    AttrRelation arel = RandomSmallAttr(rng, 5, 3);
    for (double phi : {0.25, 0.5, 0.9}) {
      const auto fast = AttrQuantileRanks(Prepared(arel), phi);
      const auto worlds = AttrRankDistributionsByEnumeration(
          arel, TiePolicy::kBreakByIndex);
      for (int i = 0; i < arel.size(); ++i) {
        EXPECT_EQ(fast[static_cast<size_t>(i)],
                  QuantileFromPmf(worlds[static_cast<size_t>(i)], phi));
      }
    }
    TupleRelation trel = RandomSmallTuple(rng, 7);
    for (double phi : {0.25, 0.5, 0.9}) {
      const auto fast = TupleQuantileRanks(Prepared(trel), phi);
      const auto worlds = TupleRankDistributionsByEnumeration(
          trel, TiePolicy::kBreakByIndex);
      for (int i = 0; i < trel.size(); ++i) {
        EXPECT_EQ(fast[static_cast<size_t>(i)],
                  QuantileFromPmf(worlds[static_cast<size_t>(i)], phi));
      }
    }
  }
}

TEST(QuantileRankTest, CertainDataQuantileIsSortPosition) {
  AttrRelation rel({
      {0, {{10.0, 1.0}}},
      {1, {{30.0, 1.0}}},
      {2, {{20.0, 1.0}}},
  });
  for (double phi : {0.1, 0.5, 0.99}) {
    EXPECT_EQ(AttrQuantileRanks(Prepared(rel), phi),
              (std::vector<int>{2, 0, 1}));
  }
}

TEST(QuantileRankTest, ExtremePhiOnTupleModel) {
  // phi = 1 gives the maximum possible rank; phi near 0 the minimum.
  const TupleRelation rel = PaperFig4();
  const PreparedTupleRelation prepared = Prepared(rel);
  const auto qmax = TupleQuantileRanks(prepared, 1.0);
  const auto qmin = TupleQuantileRanks(prepared, 0.001);
  for (int i = 0; i < rel.size(); ++i) {
    EXPECT_LE(qmin[static_cast<size_t>(i)], qmax[static_cast<size_t>(i)]);
  }
  // t1's rank is 0 (present, 0.4) or 2 (absent): min 0, max 2.
  EXPECT_EQ(qmin[0], 0);
  EXPECT_EQ(qmax[0], 2);
}

TEST(SummarizeRankDistributionTest, PointMass) {
  const RankDistributionSummary s = SummarizeRankDistribution({0.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.median, 1);
  EXPECT_EQ(s.q25, 1);
  EXPECT_EQ(s.q75, 1);
  EXPECT_EQ(s.mode, 1);
  EXPECT_EQ(s.min_rank, 1);
  EXPECT_EQ(s.max_rank, 1);
}

TEST(SummarizeRankDistributionTest, PaperFig2T1) {
  // rank(t1) = {(0, 0.4), (1, 0), (2, 0.6)}.
  const RankDistributionSummary s = SummarizeRankDistribution({0.4, 0.0, 0.6});
  EXPECT_NEAR(s.mean, 1.2, 1e-12);
  EXPECT_NEAR(s.variance, 0.4 * 1.2 * 1.2 + 0.6 * 0.8 * 0.8, 1e-12);
  EXPECT_EQ(s.median, 2);
  EXPECT_EQ(s.q25, 0);
  EXPECT_EQ(s.q75, 2);
  EXPECT_EQ(s.mode, 2);
  EXPECT_EQ(s.min_rank, 0);
  EXPECT_EQ(s.max_rank, 2);
}

TEST(SummarizeRankDistributionTest, AgreesWithDedicatedFunctions) {
  Rng rng(9);
  const TupleRelation rel = RandomSmallTuple(rng, 8);
  const PreparedTupleRelation prepared = Prepared(rel);
  const auto dists = TupleRankDistributions(rel);
  const auto medians = TupleQuantileRanks(prepared, 0.5);
  const auto er = TupleExpectedRanks(prepared, TiePolicy::kBreakByIndex);
  for (int i = 0; i < rel.size(); ++i) {
    const RankDistributionSummary s =
        SummarizeRankDistribution(dists[static_cast<size_t>(i)]);
    EXPECT_EQ(s.median, medians[static_cast<size_t>(i)]);
    EXPECT_NEAR(s.mean, er[static_cast<size_t>(i)], 1e-9);
    EXPECT_LE(s.q25, s.median);
    EXPECT_LE(s.median, s.q75);
    EXPECT_LE(s.min_rank, s.mode);
    EXPECT_LE(s.mode, s.max_rank);
    EXPECT_GE(s.variance, -1e-12);
  }
}

TEST(SummarizeRankDistributionDeathTest, RejectsBadPmf) {
  EXPECT_DEATH(SummarizeRankDistribution({}), "non-empty");
  EXPECT_DEATH(SummarizeRankDistribution({0.5, 0.4}), "sum to");
  EXPECT_DEATH(SummarizeRankDistribution({1.5, -0.5}), "non-negative");
}

TEST(QuantileRankTopKDeathTest, RejectsBadArguments) {
  EXPECT_DEATH(AttrQuantileRankTopK(Prepared(PaperFig2()), 0, 0.5),
               "k must be >= 1");
  EXPECT_DEATH(TupleQuantileRankTopK(Prepared(PaperFig4()), 1, 0.0), "phi");
}

}  // namespace
}  // namespace urank
