#include "core/monte_carlo.h"

#include <vector>

#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/rank_distribution_attr.h"
#include "core/rank_distribution_tuple.h"
#include "core/semantics/semantics.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallAttr;
using testing_util::RandomSmallTuple;

constexpr int kSamples = 60000;
constexpr double kTol = 0.02;  // ~4 sigma for Bernoulli means at kSamples

TEST(SampleAttrWorldTest, ValuesComeFromSupports) {
  const AttrRelation rel = PaperFig2();
  Rng rng(1);
  std::vector<double> scores(3);
  for (int s = 0; s < 200; ++s) {
    SampleAttrWorld(rel, rng, &scores);
    EXPECT_TRUE(scores[0] == 100.0 || scores[0] == 70.0);
    EXPECT_TRUE(scores[1] == 92.0 || scores[1] == 80.0);
    EXPECT_DOUBLE_EQ(scores[2], 85.0);
  }
}

TEST(SampleAttrWorldTest, FrequenciesMatchPdf) {
  const AttrRelation rel = PaperFig2();
  Rng rng(2);
  std::vector<double> scores(3);
  int hi = 0;
  for (int s = 0; s < kSamples; ++s) {
    SampleAttrWorld(rel, rng, &scores);
    if (scores[0] == 100.0) ++hi;
  }
  EXPECT_NEAR(static_cast<double>(hi) / kSamples, 0.4, kTol);
}

TEST(SampleTupleWorldTest, RespectsRules) {
  const TupleRelation rel = PaperFig4();
  Rng rng(3);
  std::vector<bool> present(4);
  int t2_count = 0, t4_count = 0;
  for (int s = 0; s < kSamples; ++s) {
    SampleTupleWorld(rel, rng, &present);
    EXPECT_FALSE(present[1] && present[3]);  // exclusive
    EXPECT_TRUE(present[2]);                 // p = 1
    t2_count += present[1] ? 1 : 0;
    t4_count += present[3] ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(t2_count) / kSamples, 0.5, kTol);
  EXPECT_NEAR(static_cast<double>(t4_count) / kSamples, 0.5, kTol);
}

TEST(MonteCarloExpectedRanksTest, ConvergesToExactAttr) {
  const AttrRelation rel = PaperFig2();
  Rng rng(4);
  const std::vector<double> estimate =
      AttrExpectedRanksMonteCarlo(rel, kSamples, rng);
  const std::vector<double> exact = AttrExpectedRanks(Prepared(rel));
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate[i], exact[i], 0.05) << "tuple " << i;
  }
}

TEST(MonteCarloExpectedRanksTest, ConvergesToExactTuple) {
  const TupleRelation rel = PaperFig4();
  Rng rng(5);
  const std::vector<double> estimate =
      TupleExpectedRanksMonteCarlo(rel, kSamples, rng);
  const std::vector<double> exact = TupleExpectedRanks(Prepared(rel));
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate[i], exact[i], 0.05) << "tuple " << i;
  }
}

TEST(MonteCarloRankDistributionsTest, ConvergeToExact) {
  Rng data_rng(6);
  const AttrRelation arel = RandomSmallAttr(data_rng, 5, 3);
  Rng rng(7);
  const auto est = AttrRankDistributionsMonteCarlo(arel, kSamples, rng);
  const auto exact = AttrRankDistributions(arel);
  for (size_t i = 0; i < exact.size(); ++i) {
    for (size_t r = 0; r < exact[i].size(); ++r) {
      EXPECT_NEAR(est[i][r], exact[i][r], kTol);
    }
  }
  const TupleRelation trel = RandomSmallTuple(data_rng, 6);
  const auto test = TupleRankDistributionsMonteCarlo(trel, kSamples, rng);
  const auto texact = TupleRankDistributions(trel);
  for (size_t i = 0; i < texact.size(); ++i) {
    for (size_t r = 0; r < texact[i].size(); ++r) {
      EXPECT_NEAR(test[i][r], texact[i][r], kTol);
    }
  }
}

TEST(MonteCarloTopKProbabilitiesTest, ConvergeToExact) {
  Rng data_rng(8);
  const TupleRelation trel = RandomSmallTuple(data_rng, 7);
  Rng rng(9);
  for (int k : {1, 3}) {
    const auto est =
        TupleTopKProbabilitiesMonteCarlo(trel, k, kSamples, rng);
    const auto exact = TupleTopKProbabilities(Prepared(trel), k);
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(est[i], exact[i], kTol) << "k=" << k << " tuple " << i;
    }
  }
  const AttrRelation arel = RandomSmallAttr(data_rng, 5, 3);
  const auto est = AttrTopKProbabilitiesMonteCarlo(arel, 2, kSamples, rng);
  const auto exact = AttrTopKProbabilities(Prepared(arel), 2);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(est[i], exact[i], kTol);
  }
}

TEST(MonteCarloTest, DeterministicGivenSeed) {
  const TupleRelation rel = PaperFig4();
  Rng a(11), b(11);
  EXPECT_EQ(TupleExpectedRanksMonteCarlo(rel, 500, a),
            TupleExpectedRanksMonteCarlo(rel, 500, b));
}

TEST(MonteCarloTest, MoreSamplesReduceError) {
  const TupleRelation rel = PaperFig4();
  const std::vector<double> exact = TupleExpectedRanks(Prepared(rel));
  auto max_error = [&](int samples, uint64_t seed) {
    Rng rng(seed);
    const std::vector<double> est =
        TupleExpectedRanksMonteCarlo(rel, samples, rng);
    double worst = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      worst = std::max(worst, std::fabs(est[i] - exact[i]));
    }
    return worst;
  };
  // Average over a few seeds so the comparison is not one lucky draw.
  double coarse = 0.0, fine = 0.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    coarse += max_error(100, 100 + seed);
    fine += max_error(20000, 200 + seed);
  }
  EXPECT_LT(fine, coarse);
}

TEST(MonteCarloDeathTest, RejectsBadArguments) {
  const TupleRelation rel = PaperFig4();
  Rng rng(12);
  EXPECT_DEATH(TupleExpectedRanksMonteCarlo(rel, 0, rng), "samples");
  std::vector<bool> wrong_size(2);
  EXPECT_DEATH(SampleTupleWorld(rel, rng, &wrong_size), "size");
  EXPECT_DEATH(TupleTopKProbabilitiesMonteCarlo(rel, 0, 10, rng),
               "k must be >= 1");
}

}  // namespace
}  // namespace urank
