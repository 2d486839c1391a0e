#include "core/expected_rank_tuple.h"

#include <vector>

#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallTuple;

TEST(TupleExpectedRanksTest, PaperFig4Values) {
  // Paper Section 4.3: r(t1)=1.2, r(t2)=1.4, r(t3)=0.9, r(t4)=1.9.
  ExpectNearVectors(TupleExpectedRanks(Prepared(PaperFig4())),
                    {1.2, 1.4, 0.9, 1.9},
                    1e-12);
}

TEST(TupleExpectedRanksTest, PaperFig4TopK) {
  // Final ranking (t3, t1, t2, t4).
  const auto top4 = TupleExpectedRankTopK(Prepared(PaperFig4()), 4);
  ASSERT_EQ(top4.size(), 4u);
  EXPECT_EQ(top4[0].id, 3);
  EXPECT_EQ(top4[1].id, 1);
  EXPECT_EQ(top4[2].id, 2);
  EXPECT_EQ(top4[3].id, 4);
}

TEST(TupleExpectedRanksTest, BruteForceMatchesPaper) {
  ExpectNearVectors(TupleExpectedRanksBruteForce(PaperFig4()),
                    {1.2, 1.4, 0.9, 1.9}, 1e-12);
}

TEST(TupleExpectedRanksTest, CertainTuplesReduceToSortOrder) {
  TupleRelation rel = TupleRelation::Independent(
      {{0, 10.0, 1.0}, {1, 30.0, 1.0}, {2, 20.0, 1.0}});
  ExpectNearVectors(TupleExpectedRanks(Prepared(rel)), {2.0, 0.0, 1.0}, 1e-12);
}

TEST(TupleExpectedRanksTest, AbsentTupleRanksAtWorldSize) {
  // One tuple with p = 0.5: when present rank 0, when absent rank |W| = 0.
  TupleRelation rel = TupleRelation::Independent({{0, 10.0, 0.5}});
  ExpectNearVectors(TupleExpectedRanks(Prepared(rel)), {0.0}, 1e-12);
  // Two independent tuples.
  TupleRelation rel2 = TupleRelation::Independent(
      {{0, 20.0, 0.5}, {1, 10.0, 0.5}});
  // t0: present (.5): rank 0; absent: rank = E[|W| \ t0] = 0.5.
  // t1: present (.5): rank = Pr[t0 appears] = .5; absent: 0.5.
  ExpectNearVectors(TupleExpectedRanks(Prepared(rel2)), {0.25, 0.5}, 1e-12);
}

TEST(TupleExpectedRanksTest, ExclusionRuleChangesRanks) {
  // Same tuples, exclusive: t1 can never be outranked by an appearing t0
  // in the same world it appears... it can: t0 has the higher score. But
  // when t1 appears, t0 cannot, so t1's present-rank is 0.
  TupleRelation rel({{0, 20.0, 0.5}, {1, 10.0, 0.5}}, {{0, 1}});
  // t0: present .5 -> 0; absent .5 -> E[|W| | t0 absent] = p(t1)/(1-p(t0)) = 1.
  // t1: present .5 -> 0; absent .5 -> 1.
  ExpectNearVectors(TupleExpectedRanks(Prepared(rel)), {0.5, 0.5}, 1e-12);
}

TEST(TupleExpectedRanksTest, EmptyRelation) {
  EXPECT_TRUE(
      TupleExpectedRanks(Prepared(TupleRelation::Independent({}))).empty());
}

TEST(TupleExpectedRanksTest, TiesUnderBothPolicies) {
  TupleRelation rel = TupleRelation::Independent(
      {{0, 10.0, 1.0}, {1, 10.0, 1.0}});
  const PreparedTupleRelation prepared = Prepared(rel);
  ExpectNearVectors(TupleExpectedRanks(prepared, TiePolicy::kStrictGreater),
                    {0.0, 0.0}, 1e-12);
  ExpectNearVectors(TupleExpectedRanks(prepared, TiePolicy::kBreakByIndex),
                    {0.0, 1.0}, 1e-12);
}

// `n` is 64 bits wide so the struct has no padding: GoogleTest prints the
// parameter's raw bytes into the test name, and uninitialised padding would
// make that name differ from run to run.
struct TupleCrossParam {
  int64_t n;
  uint64_t seed;
};

class TupleExpectedRankCrossCheck
    : public ::testing::TestWithParam<TupleCrossParam> {};

TEST_P(TupleExpectedRankCrossCheck, FastEqualsBruteForceEqualsEnumeration) {
  const TupleCrossParam param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 8; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, static_cast<int>(param.n));
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      const std::vector<double> fast = TupleExpectedRanks(Prepared(rel), ties);
      const std::vector<double> brute =
          TupleExpectedRanksBruteForce(rel, ties);
      const std::vector<double> worlds =
          TupleExpectedRanksByEnumeration(rel, ties);
      ExpectNearVectors(fast, brute, 1e-9);
      ExpectNearVectors(fast, worlds, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TupleExpectedRankCrossCheck,
    ::testing::Values(TupleCrossParam{1, 31}, TupleCrossParam{2, 32},
                      TupleCrossParam{4, 33}, TupleCrossParam{6, 34},
                      TupleCrossParam{8, 35}, TupleCrossParam{10, 36}));

TEST(TupleExpectedRankTopKDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(TupleExpectedRankTopK(Prepared(PaperFig4()), 0),
               "k must be >= 1");
}

}  // namespace
}  // namespace urank
