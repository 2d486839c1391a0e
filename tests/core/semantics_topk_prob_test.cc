#include "core/semantics/semantics.h"

#include <vector>

#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "test_util.h"
#include "util/rng.h"

namespace urank {
namespace {

using testing_util::ExpectNearVectors;
using testing_util::PaperFig2;
using testing_util::PaperFig4;
using testing_util::Prepared;
using testing_util::RandomSmallAttr;
using testing_util::RandomSmallTuple;

TEST(AttrTopKProbabilitiesTest, PaperFig2TopTwo) {
  // Derived in Section 4.2's PT-k discussion: top-2 probabilities are
  // 0.4 (t1), 0.84 (t2), 0.76 (t3).
  ExpectNearVectors(AttrTopKProbabilities(Prepared(PaperFig2()), 2),
                    {0.4, 0.84, 0.76}, 1e-12);
}

TEST(AttrTopKProbabilitiesTest, TopNIsCertain) {
  // Every tuple is within the top-N in every world.
  Rng rng(1);
  AttrRelation rel = RandomSmallAttr(rng, 6, 3);
  for (double p : AttrTopKProbabilities(Prepared(rel), rel.size())) {
    EXPECT_NEAR(p, 1.0, 1e-9);
  }
}

TEST(AttrTopKProbabilitiesTest, MonotoneInK) {
  Rng rng(2);
  AttrRelation rel = RandomSmallAttr(rng, 6, 3);
  const auto k1 = AttrTopKProbabilities(Prepared(rel), 1);
  const auto k2 = AttrTopKProbabilities(Prepared(rel), 2);
  const auto k4 = AttrTopKProbabilities(Prepared(rel), 4);
  for (int i = 0; i < rel.size(); ++i) {
    EXPECT_LE(k1[static_cast<size_t>(i)], k2[static_cast<size_t>(i)] + 1e-12);
    EXPECT_LE(k2[static_cast<size_t>(i)], k4[static_cast<size_t>(i)] + 1e-12);
  }
}

TEST(TupleTopKProbabilitiesTest, PaperFig4Values) {
  // Worked out in Section 4.2's Global-Topk discussion: top-1 probs are
  // .4/.3/.3/0, top-2 probs .4/.5/.8/.3.
  ExpectNearVectors(TupleTopKProbabilities(Prepared(PaperFig4()), 1),
                    {0.4, 0.3, 0.3, 0.0}, 1e-12);
  ExpectNearVectors(TupleTopKProbabilities(Prepared(PaperFig4()), 2),
                    {0.4, 0.5, 0.8, 0.3}, 1e-12);
}

TEST(TupleTopKProbabilitiesTest, CappedByPresenceProbability) {
  Rng rng(3);
  TupleRelation rel = RandomSmallTuple(rng, 8);
  for (int k : {1, 3, 8}) {
    const auto probs = TupleTopKProbabilities(Prepared(rel), k);
    for (int i = 0; i < rel.size(); ++i) {
      EXPECT_LE(probs[static_cast<size_t>(i)],
                rel.tuple(i).prob + 1e-9);
    }
  }
}

TEST(TupleTopKProbabilitiesTest, MatchesEnumeration) {
  Rng rng(4);
  for (int trial = 0; trial < 6; ++trial) {
    TupleRelation rel = RandomSmallTuple(rng, 7);
    for (int k : {1, 2, 4}) {
      const auto fast = TupleTopKProbabilities(Prepared(rel), k);
      std::vector<double> worlds(static_cast<size_t>(rel.size()), 0.0);
      ForEachTupleWorld(rel, [&](const std::vector<bool>& present,
                                 double prob) {
        for (int i = 0; i < rel.size(); ++i) {
          if (present[static_cast<size_t>(i)] &&
              RankInTupleWorld(rel, present, i, TiePolicy::kBreakByIndex) <
                  k) {
            worlds[static_cast<size_t>(i)] += prob;
          }
        }
      });
      ExpectNearVectors(fast, worlds, 1e-9);
    }
  }
}

TEST(AttrTopKProbabilitiesTest, MatchesEnumeration) {
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    AttrRelation rel = RandomSmallAttr(rng, 5, 3);
    for (int k : {1, 2, 4}) {
      const auto fast = AttrTopKProbabilities(Prepared(rel), k);
      std::vector<double> worlds(static_cast<size_t>(rel.size()), 0.0);
      ForEachAttrWorld(rel, [&](const std::vector<double>& scores,
                                double prob) {
        for (int i = 0; i < rel.size(); ++i) {
          if (RankInAttrWorld(scores, i, TiePolicy::kBreakByIndex) < k) {
            worlds[static_cast<size_t>(i)] += prob;
          }
        }
      });
      ExpectNearVectors(fast, worlds, 1e-9);
    }
  }
}

TEST(TopKProbabilitiesDeathTest, RejectsNonPositiveK) {
  EXPECT_DEATH(AttrTopKProbabilities(Prepared(PaperFig2()), 0),
               "k must be >= 1");
  EXPECT_DEATH(TupleTopKProbabilities(Prepared(PaperFig4()), 0),
               "k must be >= 1");
}

}  // namespace
}  // namespace urank
