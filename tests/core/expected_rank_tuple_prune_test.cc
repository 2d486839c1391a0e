#include <algorithm>
#include <vector>

#include "core/expected_rank_tuple.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallTuple;

void ExpectSameAnswer(const std::vector<RankedTuple>& a,
                      const std::vector<RankedTuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "position " << i;
    EXPECT_NEAR(a[i].statistic, b[i].statistic, 1e-9);
  }
}

TEST(TuplePruneTest, PaperFig4AllK) {
  for (int k = 1; k <= 4; ++k) {
    const auto exact = TupleExpectedRankTopK(Prepared(PaperFig4()), k);
    const TuplePruneResult pruned = TupleExpectedRankTopKPrune(PaperFig4(), k);
    ExpectSameAnswer(pruned.topk, exact);
  }
}

TEST(TuplePruneTest, AlwaysMatchesExactTopK) {
  // T-ERank-Prune's bound is sound: the pruned answer is the true top-k.
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 12);
    for (int k : {1, 3, 7}) {
      for (TiePolicy ties :
           {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
        const auto exact = TupleExpectedRankTopK(Prepared(rel), k, ties);
        const TuplePruneResult pruned =
            TupleExpectedRankTopKPrune(rel, k, ties);
        ExpectSameAnswer(pruned.topk, exact);
        EXPECT_LE(pruned.accessed, rel.size());
      }
    }
  }
}

TEST(TuplePruneTest, PrunesWithHighProbabilities) {
  // With probabilities near 1 the prefix mass grows one-per-tuple. The
  // scan still has to cover the absent-branch term (1-p)·E[|W|] of the
  // best ranks, but must stop well before the end.
  TupleGenConfig config;
  config.num_tuples = 2000;
  config.prob_lo = 0.95;
  config.prob_hi = 1.0;
  config.multi_rule_fraction = 0.0;
  config.seed = 5;
  TupleRelation rel = GenerateTupleRelation(config);
  const int k = 10;
  const TuplePruneResult pruned = TupleExpectedRankTopKPrune(rel, k);
  EXPECT_LT(pruned.accessed, rel.size() / 4);
  const auto exact = TupleExpectedRankTopK(Prepared(rel), k);
  ExpectSameAnswer(pruned.topk, exact);
}

TEST(TuplePruneTest, ScansMoreWithLowProbabilities) {
  TupleGenConfig config;
  config.num_tuples = 2000;
  config.prob_lo = 0.02;
  config.prob_hi = 0.1;
  config.multi_rule_fraction = 0.0;
  config.seed = 6;
  TupleRelation rel = GenerateTupleRelation(config);
  const int k = 10;
  const TuplePruneResult low = TupleExpectedRankTopKPrune(rel, k);
  config.prob_lo = 0.9;
  config.prob_hi = 1.0;
  const TuplePruneResult high =
      TupleExpectedRankTopKPrune(GenerateTupleRelation(config), k);
  EXPECT_GT(low.accessed, high.accessed);
}

TEST(TuplePruneTest, CorrectWithExclusionRulesOnGeneratedData) {
  TupleGenConfig config;
  config.num_tuples = 800;
  config.multi_rule_fraction = 0.5;
  config.max_rule_size = 4;
  config.seed = 7;
  TupleRelation rel = GenerateTupleRelation(config);
  for (int k : {1, 10, 50}) {
    const auto exact = TupleExpectedRankTopK(Prepared(rel), k);
    const TuplePruneResult pruned = TupleExpectedRankTopKPrune(rel, k);
    ExpectSameAnswer(pruned.topk, exact);
  }
}

TEST(TuplePruneTest, TiedScoresStaySound) {
  // All scores equal: the strict-policy flushed mass never grows, so the
  // algorithm must scan everything — and still be correct.
  std::vector<TLTuple> tuples;
  for (int i = 0; i < 20; ++i) tuples.push_back({i, 5.0, 0.9});
  TupleRelation rel = TupleRelation::Independent(std::move(tuples));
  const auto exact =
      TupleExpectedRankTopK(Prepared(rel), 3, TiePolicy::kStrictGreater);
  const TuplePruneResult pruned =
      TupleExpectedRankTopKPrune(rel, 3, TiePolicy::kStrictGreater);
  EXPECT_EQ(pruned.accessed, rel.size());
  ExpectSameAnswer(pruned.topk, exact);
}

TEST(TuplePruneTest, SingleTuple) {
  TupleRelation rel = TupleRelation::Independent({{0, 1.0, 0.5}});
  const TuplePruneResult pruned = TupleExpectedRankTopKPrune(rel, 1);
  ASSERT_EQ(pruned.topk.size(), 1u);
  EXPECT_EQ(pruned.topk[0].id, 0);
}

TEST(TuplePruneDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(TupleExpectedRankTopKPrune(PaperFig4(), 0), "k must be >= 1");
}

}  // namespace
}  // namespace urank
