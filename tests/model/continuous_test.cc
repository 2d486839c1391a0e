#include "model/continuous.h"

#include <cmath>
#include <string>

#include "core/expected_rank_attr.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::Prepared;

TEST(UniformScorePdfTest, CdfQuantileMean) {
  UniformScorePdf pdf(10.0, 20.0);
  EXPECT_DOUBLE_EQ(pdf.Cdf(10.0), 0.0);
  EXPECT_DOUBLE_EQ(pdf.Cdf(15.0), 0.5);
  EXPECT_DOUBLE_EQ(pdf.Cdf(20.0), 1.0);
  EXPECT_DOUBLE_EQ(pdf.Cdf(5.0), 0.0);
  EXPECT_DOUBLE_EQ(pdf.Cdf(25.0), 1.0);
  EXPECT_DOUBLE_EQ(pdf.Quantile(0.25), 12.5);
  EXPECT_DOUBLE_EQ(pdf.Mean(), 15.0);
}

TEST(GaussianScorePdfTest, CdfIsStandardNormal) {
  GaussianScorePdf pdf(0.0, 1.0);
  EXPECT_NEAR(pdf.Cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(pdf.Cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(pdf.Cdf(-1.96), 0.025, 1e-3);
}

TEST(GaussianScorePdfTest, QuantileInvertsCdf) {
  GaussianScorePdf pdf(5.0, 2.0);
  for (double p : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(pdf.Cdf(pdf.Quantile(p)), p, 1e-9) << "p=" << p;
  }
  EXPECT_NEAR(pdf.Quantile(0.5), 5.0, 1e-9);
}

TEST(TriangularScorePdfTest, CdfQuantileMean) {
  TriangularScorePdf pdf(0.0, 2.0, 6.0);
  EXPECT_DOUBLE_EQ(pdf.Cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pdf.Cdf(6.0), 1.0);
  EXPECT_NEAR(pdf.Cdf(2.0), 2.0 / 6.0, 1e-12);  // mass left of the mode
  for (double p : {0.1, 1.0 / 3.0, 0.5, 0.9}) {
    EXPECT_NEAR(pdf.Cdf(pdf.Quantile(p)), p, 1e-9) << "p=" << p;
  }
  EXPECT_NEAR(pdf.Mean(), (0.0 + 2.0 + 6.0) / 3.0, 1e-12);
}

TEST(TriangularScorePdfTest, DegenerateModeAtEndpoints) {
  TriangularScorePdf left(0.0, 0.0, 4.0);
  EXPECT_NEAR(left.Cdf(2.0), 1.0 - 4.0 / 16.0, 1e-12);
  TriangularScorePdf right(0.0, 4.0, 4.0);
  EXPECT_NEAR(right.Cdf(2.0), 4.0 / 16.0, 1e-12);
}

TEST(DiscretizeToTupleTest, ProducesValidTuple) {
  GaussianScorePdf pdf(50.0, 10.0);
  const AttrTuple t = DiscretizeToTuple(7, pdf, 8);
  EXPECT_EQ(t.id, 7);
  EXPECT_EQ(t.pdf.size(), 8u);
  std::string error;
  EXPECT_TRUE(AttrRelation::Validate({t}, &error)) << error;
}

TEST(DiscretizeToTupleTest, MeanConvergesToContinuousMean) {
  TriangularScorePdf pdf(0.0, 3.0, 10.0);
  double prev_err = 1e18;
  for (int buckets : {2, 8, 32, 128}) {
    const AttrTuple t = DiscretizeToTuple(0, pdf, buckets);
    const double err = std::fabs(t.ExpectedScore() - pdf.Mean());
    EXPECT_LT(err, prev_err + 1e-12) << "buckets=" << buckets;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.01);
}

TEST(DiscretizeToTupleTest, QuantilesAreMonotone) {
  GaussianScorePdf pdf(0.0, 1.0);
  const AttrTuple t = DiscretizeToTuple(0, pdf, 16);
  for (size_t l = 1; l < t.pdf.size(); ++l) {
    EXPECT_GT(t.pdf[l].value, t.pdf[l - 1].value);
  }
}

TEST(DiscretizeToTupleTest, SingleBucketIsTheMedian) {
  UniformScorePdf pdf(0.0, 10.0);
  const AttrTuple t = DiscretizeToTuple(0, pdf, 1);
  ASSERT_EQ(t.pdf.size(), 1u);
  EXPECT_DOUBLE_EQ(t.pdf[0].value, 5.0);
  EXPECT_DOUBLE_EQ(t.pdf[0].prob, 1.0);
}

TEST(DiscretizeToTupleTest, StochasticOrderIsPreserved) {
  // Two Gaussians with different means: the discretized ranking must put
  // the larger-mean one first, at any resolution.
  for (int buckets : {1, 4, 16}) {
    AttrRelation rel({DiscretizeToTuple(0, GaussianScorePdf(60.0, 5.0), buckets),
                      DiscretizeToTuple(1, GaussianScorePdf(40.0, 5.0), buckets)});
    const auto top = AttrExpectedRankTopK(Prepared(rel), 2);
    EXPECT_EQ(top[0].id, 0) << "buckets=" << buckets;
  }
}

TEST(DiscretizeToTupleTest, RankingConvergesWithResolution) {
  // Overlapping distributions ranked at coarse vs fine resolution: the
  // fine discretization's expected ranks approach a reference computed at
  // very high resolution.
  auto ranks_at = [&](int buckets) {
    AttrRelation rel({
        DiscretizeToTuple(0, GaussianScorePdf(50.0, 15.0), buckets),
        DiscretizeToTuple(1, TriangularScorePdf(30.0, 55.0, 70.0), buckets),
        DiscretizeToTuple(2, UniformScorePdf(20.0, 90.0), buckets),
    });
    return AttrExpectedRanks(Prepared(rel));
  };
  const auto reference = ranks_at(512);
  const auto coarse = ranks_at(4);
  const auto fine = ranks_at(64);
  double coarse_err = 0.0, fine_err = 0.0;
  for (size_t i = 0; i < reference.size(); ++i) {
    coarse_err += std::fabs(coarse[i] - reference[i]);
    fine_err += std::fabs(fine[i] - reference[i]);
  }
  EXPECT_LT(fine_err, coarse_err);
  EXPECT_LT(fine_err, 0.05);
}

TEST(ContinuousDeathTest, RejectsBadParameters) {
  EXPECT_DEATH(UniformScorePdf(1.0, 1.0), "lo < hi");
  EXPECT_DEATH(GaussianScorePdf(0.0, 0.0), "stddev > 0");
  EXPECT_DEATH(TriangularScorePdf(0.0, 5.0, 4.0), "mode");
  UniformScorePdf pdf(0.0, 1.0);
  EXPECT_DEATH(pdf.Quantile(0.0), "p in");
  EXPECT_DEATH(pdf.Quantile(1.0), "p in");
  EXPECT_DEATH(DiscretizeToTuple(0, pdf, 0), "buckets");
}

}  // namespace
}  // namespace urank
