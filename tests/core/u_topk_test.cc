#include "core/semantics/u_topk.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;

TEST(AttrUTopKTest, PaperFig2ContainmentCounterexample) {
  // Section 4.2: top-1 is {t1} (0.4) but top-2 is {t2, t3} (0.36) —
  // completely disjoint.
  const UTopKAnswer top1 = AttrUTopK(Prepared(PaperFig2()), 1);
  EXPECT_EQ(top1.ids, (std::vector<int>{1}));
  EXPECT_NEAR(top1.probability, 0.4, 1e-12);
  const UTopKAnswer top2 = AttrUTopK(Prepared(PaperFig2()), 2);
  EXPECT_EQ(top2.ids, (std::vector<int>{2, 3}));
  EXPECT_NEAR(top2.probability, 0.36, 1e-12);
}

TEST(TupleUTopKTest, PaperFig4ContainmentCounterexample) {
  // Section 4.2: top-1 is t1; top-2 is (t2,t3) or (t3,t4), both 0.3.
  const UTopKAnswer top1 = TupleUTopK(Prepared(PaperFig4()), 1);
  EXPECT_EQ(top1.ids, (std::vector<int>{1}));
  EXPECT_NEAR(top1.probability, 0.4, 1e-12);
  const UTopKAnswer top2 = TupleUTopK(Prepared(PaperFig4()), 2);
  EXPECT_NEAR(top2.probability, 0.3, 1e-12);
  const bool valid = top2.ids == std::vector<int>{2, 3} ||
                     top2.ids == std::vector<int>{3, 4};
  EXPECT_TRUE(valid);
}

TEST(TupleUTopKIndependentTest, CertainTuplesGiveTopScores) {
  TupleRelation rel = TupleRelation::Independent(
      {{0, 10.0, 1.0}, {1, 30.0, 1.0}, {2, 20.0, 1.0}});
  const UTopKAnswer top2 = TupleUTopKIndependent(rel, 2);
  EXPECT_EQ(top2.ids, (std::vector<int>{1, 2}));
  EXPECT_NEAR(top2.probability, 1.0, 1e-12);
}

TEST(TupleUTopKIndependentTest, SmallWorldsCanWin) {
  // One unlikely high tuple; top-1 set {} impossible (p sums), {hi} has
  // prob .1, {lo} requires hi absent: .9 * 1.0. So the answer is {lo}.
  TupleRelation rel = TupleRelation::Independent(
      {{0, 100.0, 0.1}, {1, 50.0, 1.0}});
  const UTopKAnswer top1 = TupleUTopKIndependent(rel, 1);
  EXPECT_EQ(top1.ids, (std::vector<int>{1}));
  EXPECT_NEAR(top1.probability, 0.9, 1e-12);
}

TEST(TupleUTopKIndependentTest, AnswerMayHaveFewerThanKTuples) {
  // Mostly-empty worlds: for k=2 the best "top-2 set" is the empty set
  // when both tuples are very unlikely.
  TupleRelation rel = TupleRelation::Independent(
      {{0, 10.0, 0.05}, {1, 20.0, 0.05}});
  const UTopKAnswer top2 = TupleUTopKIndependent(rel, 2);
  EXPECT_TRUE(top2.ids.empty());
  EXPECT_NEAR(top2.probability, 0.95 * 0.95, 1e-12);
}

TEST(TupleUTopKIndependentTest, MatchesEnumerationOnRandomInstances) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 10));
    std::vector<TLTuple> tuples;
    for (int i = 0; i < n; ++i) {
      tuples.push_back({i, static_cast<double>(rng.UniformInt(1, 20)),
                        rng.Uniform(0.05, 1.0)});
    }
    TupleRelation rel = TupleRelation::Independent(std::move(tuples));
    for (int k : {1, 2, 4}) {
      const UTopKAnswer dp = TupleUTopKIndependent(rel, k);
      double best = 0.0;
      for (const auto& [ids, prob] : TupleTopKSetProbabilities(rel, k)) {
        best = std::max(best, prob);
      }
      EXPECT_NEAR(dp.probability, best, 1e-9) << "n=" << n << " k=" << k;
      // The reported set must actually achieve the reported probability.
      const auto sets = TupleTopKSetProbabilities(rel, k);
      const auto it = sets.find(dp.ids);
      ASSERT_NE(it, sets.end());
      EXPECT_NEAR(it->second, dp.probability, 1e-9);
    }
  }
}

TEST(TupleUTopKTest, DispatchesToEnumerationWithRules) {
  // With rules, TupleUTopK must agree with the set-probability argmax.
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    TupleRelation rel = testing_util::RandomSmallTuple(rng, 8);
    for (int k : {1, 3}) {
      const UTopKAnswer ans = TupleUTopK(Prepared(rel), k);
      double best = 0.0;
      for (const auto& [ids, prob] : TupleTopKSetProbabilities(rel, k)) {
        best = std::max(best, prob);
      }
      EXPECT_NEAR(ans.probability, best, 1e-9);
    }
  }
}

TEST(AttrUTopKTest, ProbabilityIsAchievedByReportedSet) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    AttrRelation rel = testing_util::RandomSmallAttr(rng, 5, 3);
    for (int k : {1, 2, 3}) {
      const UTopKAnswer ans = AttrUTopK(Prepared(rel), k);
      const auto sets = AttrTopKSetProbabilities(rel, k);
      const auto it = sets.find(ans.ids);
      ASSERT_NE(it, sets.end());
      EXPECT_NEAR(it->second, ans.probability, 1e-9);
      for (const auto& [ids, prob] : sets) {
        EXPECT_LE(prob, ans.probability + 1e-9);
      }
    }
  }
}

TEST(TupleUTopKWithRulesTest, PaperFig4) {
  const UTopKAnswer top1 = TupleUTopKWithRules(PaperFig4(), 1);
  EXPECT_EQ(top1.ids, (std::vector<int>{1}));
  EXPECT_NEAR(top1.probability, 0.4, 1e-12);
  const UTopKAnswer top2 = TupleUTopKWithRules(PaperFig4(), 2);
  EXPECT_NEAR(top2.probability, 0.3, 1e-12);
  const bool valid = top2.ids == std::vector<int>{2, 3} ||
                     top2.ids == std::vector<int>{3, 4};
  EXPECT_TRUE(valid);
}

TEST(TupleUTopKWithRulesTest, MatchesEnumerationOnRandomInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    TupleRelation rel = testing_util::RandomSmallTuple(rng, 9);
    for (int k : {1, 2, 4, 7}) {
      const UTopKAnswer sweep = TupleUTopKWithRules(rel, k);
      const auto sets = TupleTopKSetProbabilities(rel, k);
      double best = 0.0;
      for (const auto& [ids, prob] : sets) best = std::max(best, prob);
      EXPECT_NEAR(sweep.probability, best, 1e-9)
          << "trial " << trial << " k=" << k;
      // The reported answer must actually achieve its probability.
      const auto it = sets.find(sweep.ids);
      ASSERT_NE(it, sets.end()) << "trial " << trial << " k=" << k;
      EXPECT_NEAR(it->second, sweep.probability, 1e-9);
    }
  }
}

TEST(TupleUTopKWithRulesTest, SaturatedRulesAreForced) {
  // Rule {t1, t2} has total mass 1: every world contains exactly one of
  // them, so every top-2 answer includes one.
  TupleRelation rel({{1, 30.0, 0.6}, {2, 20.0, 0.4}, {3, 10.0, 0.9}},
                    {{0, 1}, {2}});
  const UTopKAnswer top2 = TupleUTopKWithRules(rel, 2);
  // Candidates: (t1,t3) = .6*.9 = .54; (t2,t3) = .4*.9 = .36;
  // (t1,t2) impossible; (t1) alone requires t3 absent: .6*.1 = .06.
  EXPECT_EQ(top2.ids, (std::vector<int>{1, 3}));
  EXPECT_NEAR(top2.probability, 0.54, 1e-12);
}

TEST(TupleUTopKWithRulesTest, ShortAnswerWinsWhenWorldsAreSmall) {
  // Both tuples unlikely and mutually exclusive: the empty answer
  // dominates for k = 2.
  TupleRelation rel({{1, 10.0, 0.05}, {2, 20.0, 0.05}}, {{0, 1}});
  const UTopKAnswer top2 = TupleUTopKWithRules(rel, 2);
  EXPECT_TRUE(top2.ids.empty());
  EXPECT_NEAR(top2.probability, 0.9, 1e-12);
}

TEST(TupleUTopKWithRulesTest, AgreesWithIndependentDP) {
  Rng rng(12);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<TLTuple> tuples;
    for (int i = 0; i < n; ++i) {
      tuples.push_back({i, static_cast<double>(rng.UniformInt(1, 20)),
                        rng.Uniform(0.05, 1.0)});
    }
    TupleRelation rel = TupleRelation::Independent(std::move(tuples));
    for (int k : {1, 3, 5}) {
      const UTopKAnswer dp = TupleUTopKIndependent(rel, k);
      const UTopKAnswer sweep = TupleUTopKWithRules(rel, k);
      EXPECT_NEAR(sweep.probability, dp.probability, 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(TupleUTopKWithRulesTest, CertainTuplesInRules) {
  // p = 1 tuples saturate their singleton rules immediately.
  TupleRelation rel = TupleRelation::Independent(
      {{0, 30.0, 1.0}, {1, 20.0, 1.0}, {2, 10.0, 1.0}});
  const UTopKAnswer top2 = TupleUTopKWithRules(rel, 2);
  EXPECT_EQ(top2.ids, (std::vector<int>{0, 1}));
  EXPECT_NEAR(top2.probability, 1.0, 1e-12);
}

TEST(TupleUTopKWithRulesTest, TiedScores) {
  // Equal scores resolve by index in every world; the sweep must agree
  // with enumeration.
  TupleRelation rel({{1, 5.0, 0.4}, {2, 5.0, 0.6}, {3, 5.0, 0.7}},
                    {{0, 1}, {2}});
  for (int k : {1, 2, 3}) {
    const UTopKAnswer sweep = TupleUTopKWithRules(rel, k);
    const auto sets = TupleTopKSetProbabilities(rel, k);
    double best = 0.0;
    for (const auto& [ids, prob] : sets) best = std::max(best, prob);
    EXPECT_NEAR(sweep.probability, best, 1e-9) << "k=" << k;
  }
}

TEST(TupleUTopKWithRulesTest, KLargerThanNReturnsMostLikelyWorld) {
  // With k > N every world's full content is its top-k answer, so U-Topk
  // degenerates to the most likely world: {t2,t3} or {t3,t4}, both 0.3.
  const UTopKAnswer answer = TupleUTopKWithRules(PaperFig4(), 10);
  EXPECT_NEAR(answer.probability, 0.3, 1e-12);
  const bool valid = answer.ids == std::vector<int>{2, 3} ||
                     answer.ids == std::vector<int>{3, 4};
  EXPECT_TRUE(valid);
}

TEST(TupleUTopKIndependentTest, KLargerThanN) {
  TupleRelation rel = TupleRelation::Independent(
      {{0, 20.0, 0.9}, {1, 10.0, 0.8}});
  const UTopKAnswer answer = TupleUTopKIndependent(rel, 5);
  EXPECT_EQ(answer.ids, (std::vector<int>{0, 1}));
  EXPECT_NEAR(answer.probability, 0.72, 1e-12);
}

TEST(AttrUTopKTest, KLargerThanNIsTheFullOrdering) {
  // Attribute-level worlds always contain all N tuples, so the top-k for
  // k >= N is the most likely complete ordering.
  const UTopKAnswer answer = AttrUTopK(Prepared(PaperFig2()), 5);
  EXPECT_EQ(answer.ids.size(), 3u);
  // Most likely ordering: world (70,92,85) with prob .36 -> (t2,t3,t1).
  EXPECT_EQ(answer.ids, (std::vector<int>{2, 3, 1}));
  EXPECT_NEAR(answer.probability, 0.36, 1e-12);
}

TEST(TupleUTopKWithRulesTest, EmptyRelation) {
  const UTopKAnswer answer =
      TupleUTopKWithRules(TupleRelation::Independent({}), 3);
  EXPECT_TRUE(answer.ids.empty());
  EXPECT_NEAR(answer.probability, 1.0, 1e-12);
}

TEST(UTopKDeathTest, RejectsBadArguments) {
  EXPECT_DEATH(AttrUTopK(Prepared(PaperFig2()), 0), "k must be >= 1");
  EXPECT_DEATH(TupleUTopK(Prepared(PaperFig4()), 0), "k must be >= 1");
  EXPECT_DEATH(TupleUTopKIndependent(PaperFig4(), 1), "singleton rules");
  EXPECT_DEATH(TupleUTopKWithRules(PaperFig4(), 0), "k must be >= 1");
}

}  // namespace
}  // namespace urank
