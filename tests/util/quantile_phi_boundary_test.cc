// Death tests for the phi-domain contract of the quantile-rank entry
// points. The contract is phi in (0, 1]: phi = 0 has no smallest rank
// reaching a zero quantile (every cdf prefix qualifies vacuously) and
// anything above 1 can never be reached, so both ends abort through the
// always-on URANK_CHECK tier rather than returning a made-up rank. These
// sit alongside check_test.cc because they pin the *boundary placement*
// of a contract, not quantile arithmetic (tests/core/quantile_rank_test.cc
// covers that).

#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "core/quantile_rank.h"
#include "test_util.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;

const std::vector<double> kPmf = {0.25, 0.25, 0.5};

TEST(QuantilePhiBoundaryTest, BoundariesOfTheValidInterval) {
  // phi = 1 is inside the contract: it selects the last rank the cdf
  // reaches, even when round-off keeps the sum fractionally below 1.
  EXPECT_EQ(QuantileFromPmf(kPmf, 1.0), 2);
  // The smallest representable positive phi is inside too.
  EXPECT_EQ(QuantileFromPmf(kPmf, std::numeric_limits<double>::min()), 0);
}

TEST(QuantilePhiBoundaryDeathTest, PhiZeroAborts) {
  EXPECT_DEATH(QuantileFromPmf(kPmf, 0.0), "phi must be in \\(0,1\\]");
}

TEST(QuantilePhiBoundaryDeathTest, PhiJustAboveOneAborts) {
  const double above_one = std::nextafter(1.0, 2.0);
  EXPECT_DEATH(QuantileFromPmf(kPmf, above_one), "phi must be in \\(0,1\\]");
}

TEST(QuantilePhiBoundaryDeathTest, NegativePhiAborts) {
  EXPECT_DEATH(QuantileFromPmf(kPmf, -0.5), "phi must be in \\(0,1\\]");
  EXPECT_DEATH(QuantileFromPmf(kPmf, -0.0), "phi must be in \\(0,1\\]");
}

TEST(QuantilePhiBoundaryDeathTest, NonFinitePhiAborts) {
  EXPECT_DEATH(QuantileFromPmf(kPmf, std::numeric_limits<double>::quiet_NaN()),
               "phi must be in \\(0,1\\]");
  EXPECT_DEATH(QuantileFromPmf(kPmf, std::numeric_limits<double>::infinity()),
               "phi must be in \\(0,1\\]");
}

// The relation-level entry points (the prepared-state statistic and
// top-k functions) validate phi up front, before any DP work, so a bad
// phi aborts even on inputs where no pmf is ever built.
TEST(QuantilePhiBoundaryDeathTest, RelationEntryPointsValidateUpFront) {
  const PreparedAttrRelation attr = Prepared(PaperFig2());
  const PreparedTupleRelation tuple = Prepared(PaperFig4());
  EXPECT_DEATH(AttrQuantileRanks(attr, 0.0), "phi must be in \\(0,1\\]");
  EXPECT_DEATH(TupleQuantileRanks(tuple, 0.0), "phi must be in \\(0,1\\]");
  EXPECT_DEATH(AttrQuantileRankTopK(attr, 1, 1.5), "phi must be in \\(0,1\\]");
  EXPECT_DEATH(TupleQuantileRankTopK(tuple, 1, 1.5),
               "phi must be in \\(0,1\\]");
}

TEST(QuantilePhiBoundaryTest, RelationEntryPointsAcceptTheClosedTop) {
  // phi = 1 flows through both models end to end.
  EXPECT_EQ(AttrQuantileRanks(Prepared(PaperFig2()), 1.0).size(), 3u);
  EXPECT_EQ(TupleQuantileRanks(Prepared(PaperFig4()), 1.0).size(), 4u);
}

}  // namespace
}  // namespace urank
