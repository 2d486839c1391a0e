#include "core/properties.h"

#include <cmath>
#include <tuple>
#include <vector>

#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "core/semantics/expected_score.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/u_kranks.h"
#include "core/semantics/u_topk.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallAttr;
using testing_util::RandomSmallTuple;

// ---- semantics adapters -------------------------------------------------

AttrSemanticsFn AttrExpectedRankSemantics() {
  return [](const AttrRelation& rel, int k) {
    return IdsOf(AttrExpectedRankTopK(Prepared(rel), k));
  };
}

TupleSemanticsFn TupleExpectedRankSemantics() {
  return [](const TupleRelation& rel, int k) {
    return IdsOf(TupleExpectedRankTopK(Prepared(rel), k));
  };
}

AttrSemanticsFn AttrQuantileSemantics(double phi) {
  return [phi](const AttrRelation& rel, int k) {
    return IdsOf(AttrQuantileRankTopK(Prepared(rel), k, phi));
  };
}

TupleSemanticsFn TupleQuantileSemantics(double phi) {
  return [phi](const TupleRelation& rel, int k) {
    return IdsOf(TupleQuantileRankTopK(Prepared(rel), k, phi));
  };
}

AttrSemanticsFn AttrExpectedScoreSemantics() {
  return [](const AttrRelation& rel, int k) {
    return IdsOf(AttrExpectedScoreTopK(Prepared(rel), k));
  };
}

// ---- expected / median / quantile ranks: all properties hold -----------

TEST(ExpectedRankPropertiesTest, AttrPaperExampleSatisfiesAll) {
  const PropertyReport report =
      CheckAttrProperties(AttrExpectedRankSemantics(), PaperFig2());
  EXPECT_TRUE(report.AllHold())
      << (report.violations.empty() ? "" : report.violations[0]);
}

TEST(ExpectedRankPropertiesTest, TuplePaperExampleSatisfiesAll) {
  const PropertyReport report =
      CheckTupleProperties(TupleExpectedRankSemantics(), PaperFig4());
  EXPECT_TRUE(report.AllHold()) << (report.violations.empty()
      ? "" : report.violations[0]);
}

class ExpectedRankPropertySweep : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ExpectedRankPropertySweep, RandomAttrInstancesSatisfyAll) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    AttrRelation rel = RandomSmallAttr(rng, 7, 3);
    PropertyCheckOptions options;
    options.seed = GetParam() + static_cast<uint64_t>(trial);
    const PropertyReport report =
        CheckAttrProperties(AttrExpectedRankSemantics(), rel, options);
    EXPECT_TRUE(report.AllHold())
        << (report.violations.empty() ? "" : report.violations[0]);
  }
}

TEST_P(ExpectedRankPropertySweep, RandomTupleInstancesSatisfyAll) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 4; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 8);
    PropertyCheckOptions options;
    options.seed = GetParam() + static_cast<uint64_t>(trial);
    const PropertyReport report =
        CheckTupleProperties(TupleExpectedRankSemantics(), rel, options);
    EXPECT_TRUE(report.AllHold())
        << (report.violations.empty() ? "" : report.violations[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpectedRankPropertySweep,
                         ::testing::Values(201, 202, 203, 204));

class QuantilePropertySweep
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(QuantilePropertySweep, MedianAndQuantileRanksSatisfyAll) {
  const double phi = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  for (int trial = 0; trial < 3; ++trial) {
    AttrRelation arel = RandomSmallAttr(rng, 6, 3);
    PropertyCheckOptions options;
    options.seed = std::get<1>(GetParam()) + static_cast<uint64_t>(trial);
    options.stability_trials = 4;
    const PropertyReport areport =
        CheckAttrProperties(AttrQuantileSemantics(phi), arel, options);
    EXPECT_TRUE(areport.AllHold())
        << "phi=" << phi << ": "
        << (areport.violations.empty() ? "" : areport.violations[0]);
    TupleRelation trel = RandomSmallTuple(rng, 7);
    const PropertyReport treport =
        CheckTupleProperties(TupleQuantileSemantics(phi), trel, options);
    EXPECT_TRUE(treport.AllHold())
        << "phi=" << phi << ": "
        << (treport.violations.empty() ? "" : treport.violations[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PhiSweep, QuantilePropertySweep,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.75),
                       ::testing::Values(301, 302)));

// ---- baselines: the paper's documented failures -------------------------

TEST(BaselinePropertiesTest, UTopkViolatesContainmentOnFig2) {
  AttrSemanticsFn semantics = [](const AttrRelation& rel, int k) {
    return AttrUTopK(Prepared(rel), k).ids;
  };
  PropertyCheckOptions options;
  options.max_k = 3;
  const PropertyReport report =
      CheckAttrProperties(semantics, PaperFig2(), options);
  EXPECT_FALSE(report.containment);
  EXPECT_FALSE(report.weak_containment);
  EXPECT_TRUE(report.unique_rank);
  EXPECT_TRUE(report.value_invariance);
}

TEST(BaselinePropertiesTest, UTopkViolatesContainmentOnFig4) {
  TupleSemanticsFn semantics = [](const TupleRelation& rel, int k) {
    return TupleUTopK(Prepared(rel), k).ids;
  };
  PropertyCheckOptions options;
  options.max_k = 3;
  const PropertyReport report =
      CheckTupleProperties(semantics, PaperFig4(), options);
  EXPECT_FALSE(report.weak_containment);
  EXPECT_TRUE(report.value_invariance);
}

TEST(BaselinePropertiesTest, UKRanksViolatesUniqueRankingOnFig2) {
  AttrSemanticsFn semantics = [](const AttrRelation& rel, int k) {
    return AttrUKRanks(Prepared(rel), k);
  };
  PropertyCheckOptions options;
  options.max_k = 3;
  options.stability_trials = 0;
  const PropertyReport report =
      CheckAttrProperties(semantics, PaperFig2(), options);
  EXPECT_FALSE(report.unique_rank);   // t1 wins ranks 0 and 2
  EXPECT_TRUE(report.containment);    // list-prefix containment holds
  EXPECT_TRUE(report.value_invariance);
}

TEST(BaselinePropertiesTest, UKRanksViolatesExactKOnFig4) {
  TupleSemanticsFn semantics = [](const TupleRelation& rel, int k) {
    return TupleUKRanks(Prepared(rel), k);
  };
  PropertyCheckOptions options;
  options.max_k = 4;
  options.stability_trials = 0;
  const PropertyReport report =
      CheckTupleProperties(semantics, PaperFig4(), options);
  EXPECT_FALSE(report.exact_k);  // no 4th-placed tuple exists
  EXPECT_FALSE(report.unique_rank);
}

TEST(BaselinePropertiesTest, PTkViolatesExactKAndStrongContainment) {
  AttrSemanticsFn semantics = [](const AttrRelation& rel, int k) {
    return AttrPTk(Prepared(rel), k, 0.4);
  };
  PropertyCheckOptions options;
  options.max_k = 3;
  options.stability_trials = 0;
  const PropertyReport report =
      CheckAttrProperties(semantics, PaperFig2(), options);
  EXPECT_FALSE(report.exact_k);      // PT-2 returns 3 tuples
  EXPECT_FALSE(report.containment);  // no growth from k=2 to k=3
  EXPECT_TRUE(report.weak_containment);
  EXPECT_TRUE(report.value_invariance);
}

TEST(BaselinePropertiesTest, GlobalTopkViolatesContainmentOnFig2) {
  AttrSemanticsFn semantics = [](const AttrRelation& rel, int k) {
    return AttrGlobalTopK(Prepared(rel), k);
  };
  PropertyCheckOptions options;
  options.max_k = 3;
  const PropertyReport report =
      CheckAttrProperties(semantics, PaperFig2(), options);
  EXPECT_FALSE(report.weak_containment);  // top-1 {t1}, top-2 {t2,t3}
  EXPECT_TRUE(report.exact_k);
  EXPECT_TRUE(report.unique_rank);
  EXPECT_TRUE(report.value_invariance);
}

TEST(BaselinePropertiesTest, ExpectedScoreViolatesValueInvariance) {
  // A cubic stretch reorders expected scores: 2-point pdf {1, 10} with
  // mean 5.5 vs a certain 6. Cubing gives {1, 1000} mean 500.5 vs 216.
  AttrRelation rel({
      {0, {{1.0, 0.5}, {10.0, 0.5}}},
      {1, {{6.0, 1.0}}},
  });
  PropertyCheckOptions options;
  options.max_k = 2;
  const PropertyReport report =
      CheckAttrProperties(AttrExpectedScoreSemantics(), rel, options);
  EXPECT_FALSE(report.value_invariance);
  EXPECT_TRUE(report.exact_k);
  EXPECT_TRUE(report.containment);
  EXPECT_TRUE(report.unique_rank);
}

TEST(BaselinePropertiesTest, ExpectedRankIsValueInvariantOnSameInstance) {
  AttrRelation rel({
      {0, {{1.0, 0.5}, {10.0, 0.5}}},
      {1, {{6.0, 1.0}}},
  });
  PropertyCheckOptions options;
  options.max_k = 2;
  const PropertyReport report =
      CheckAttrProperties(AttrExpectedRankSemantics(), rel, options);
  EXPECT_TRUE(report.value_invariance);
}

// ---- transform helpers ---------------------------------------------------

TEST(TransformTest, CubicPreservesOrderAndDistribution) {
  AttrRelation transformed = TransformAttrScoresCubic(PaperFig2());
  EXPECT_DOUBLE_EQ(transformed.tuple(0).pdf[0].value, 100.0 * 100.0 * 100.0);
  EXPECT_DOUBLE_EQ(transformed.tuple(0).pdf[0].prob, 0.4);
}

TEST(TransformTest, LogCompresses) {
  TupleRelation transformed = TransformTupleScoresLog(PaperFig4());
  EXPECT_NEAR(transformed.tuple(0).score, std::log1p(100.0), 1e-12);
  // Order is preserved.
  for (int i = 1; i < transformed.size(); ++i) {
    EXPECT_LT(transformed.tuple(i).score, transformed.tuple(i - 1).score);
  }
}

TEST(TransformDeathTest, RequiresPositiveScores) {
  AttrRelation rel({{0, {{-1.0, 1.0}}}});
  EXPECT_DEATH(TransformAttrScoresCubic(rel), "positive");
}

TEST(PropertyCheckTest, EmptyRelationTriviallyHolds) {
  const PropertyReport report =
      CheckAttrProperties(AttrExpectedRankSemantics(), AttrRelation());
  EXPECT_TRUE(report.AllHold());
}

}  // namespace
}  // namespace urank
