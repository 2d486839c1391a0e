#include "core/semantics/u_kranks.h"

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

TEST(AttrUKRanksTest, PaperFig2TopThree) {
  // Section 4.2: under U-kRanks the top-3 is t1, t3, t1 — t1 appears twice
  // and t2 never (the unique-ranking counterexample).
  const std::vector<int> answer = AttrUKRanks(Prepared(PaperFig2()), 3);
  EXPECT_EQ(answer, (std::vector<int>{1, 3, 1}));
}

TEST(TupleUKRanksTest, PaperFig4Positions) {
  // Section 4.2: rank 1 -> t1; rank 2 -> t3; rank 3 is a tie (t3/t4, both
  // 0.2; smaller id wins); rank 4 is unreachable -> -1.
  const std::vector<int> answer = TupleUKRanks(Prepared(PaperFig4()), 4);
  ASSERT_EQ(answer.size(), 4u);
  EXPECT_EQ(answer[0], 1);
  EXPECT_EQ(answer[1], 3);
  EXPECT_EQ(answer[2], 3);  // tie with t4 broken towards smaller id
  EXPECT_EQ(answer[3], -1);
}

TEST(UKRanksTest, CertainDataIsSortOrder) {
  AttrRelation arel({
      {0, {{10.0, 1.0}}},
      {1, {{30.0, 1.0}}},
      {2, {{20.0, 1.0}}},
  });
  EXPECT_EQ(AttrUKRanks(Prepared(arel), 3), (std::vector<int>{1, 2, 0}));
  TupleRelation trel = TupleRelation::Independent(
      {{0, 10.0, 1.0}, {1, 30.0, 1.0}, {2, 20.0, 1.0}});
  EXPECT_EQ(TupleUKRanks(Prepared(trel), 3), (std::vector<int>{1, 2, 0}));
}

TEST(UKRanksTest, MatchesEnumerationArgmax) {
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    TupleRelation rel = testing_util::RandomSmallTuple(rng, 7);
    const int k = 4;
    const std::vector<int> fast = TupleUKRanks(Prepared(rel), k);
    // Enumerate Pr[t_i present at rank r] and take argmax per rank.
    std::vector<std::vector<double>> pos(
        static_cast<size_t>(rel.size()),
        std::vector<double>(static_cast<size_t>(k), 0.0));
    ForEachTupleWorld(rel, [&](const std::vector<bool>& present,
                               double prob) {
      for (int i = 0; i < rel.size(); ++i) {
        if (!present[static_cast<size_t>(i)]) continue;
        const int r =
            RankInTupleWorld(rel, present, i, TiePolicy::kBreakByIndex);
        if (r < k) pos[static_cast<size_t>(i)][static_cast<size_t>(r)] += prob;
      }
    });
    for (int r = 0; r < k; ++r) {
      double best = 0.0;
      int winner = -1;
      for (int i = 0; i < rel.size(); ++i) {
        const double p = pos[static_cast<size_t>(i)][static_cast<size_t>(r)];
        if (p > best + 1e-12) {
          best = p;
          winner = rel.tuple(i).id;
        }
      }
      if (winner >= 0 && best > 1e-9) {
        // Allow id-tie differences only when probabilities are tied.
        const double fast_prob =
            fast[static_cast<size_t>(r)] >= 0
                ? [&] {
                    for (int i = 0; i < rel.size(); ++i) {
                      if (rel.tuple(i).id == fast[static_cast<size_t>(r)]) {
                        return pos[static_cast<size_t>(i)]
                                  [static_cast<size_t>(r)];
                      }
                    }
                    return 0.0;
                  }()
                : 0.0;
        EXPECT_NEAR(fast_prob, best, 1e-9) << "rank " << r;
      } else {
        EXPECT_EQ(fast[static_cast<size_t>(r)], -1) << "rank " << r;
      }
    }
  }
}

TEST(UKRanksTest, UnreachableRanksAreMinusOne) {
  // Two mutually exclusive tuples: at most one appears, so rank 2 is
  // unreachable.
  TupleRelation rel({{1, 10.0, 0.5}, {2, 20.0, 0.5}}, {{0, 1}});
  const std::vector<int> answer = TupleUKRanks(Prepared(rel), 2);
  EXPECT_NE(answer[0], -1);
  EXPECT_EQ(answer[1], -1);
}

TEST(UKRanksDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(AttrUKRanks(Prepared(PaperFig2()), 0), "k must be >= 1");
  EXPECT_DEATH(TupleUKRanks(Prepared(PaperFig4()), 0), "k must be >= 1");
}

}  // namespace
}  // namespace urank
