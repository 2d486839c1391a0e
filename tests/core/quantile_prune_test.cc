// Pruned quantile / median-rank top-k vs the unpruned kernels: the pruned
// forms must return the *identical* RankedTuple vector (ids, statistics
// and tie-break order, compared with EXPECT_EQ — no tolerance) for every
// scenario, k, phi and tie policy, while the reported scan statistics
// stay sound (scanned <= stop position <= N, and a fired bound implies a
// full top-k heap).

#include "core/quantile_rank.h"

#include <vector>

#include "gtest/gtest.h"
#include "common/scenario_gen.h"
#include "core/engine/query_engine.h"
#include "test_util.h"

namespace urank {
namespace {

using testgen::AdversarialRuleTupleRelation;
using testgen::ClusteredScoreAttrRelation;
using testgen::ClusteredScoreTupleRelation;
using testgen::CorrelatedTupleRelation;
using testgen::WideRuleTupleRelation;
using testing_util::PaperFig2;
using testing_util::PaperFig4;

void ExpectSameTopK(const std::vector<RankedTuple>& unpruned,
                    const PrunedTopKResult& pruned, long long n) {
  ASSERT_EQ(pruned.topk.size(), unpruned.size());
  for (size_t i = 0; i < unpruned.size(); ++i) {
    EXPECT_EQ(pruned.topk[i].id, unpruned[i].id) << "position " << i;
    EXPECT_EQ(pruned.topk[i].statistic, unpruned[i].statistic)
        << "position " << i;
  }
  EXPECT_GE(pruned.tuples_scanned, static_cast<long long>(unpruned.size()));
  EXPECT_LE(pruned.tuples_scanned, n);
  EXPECT_GE(pruned.prune_stop_position, pruned.tuples_scanned);
  EXPECT_LE(pruned.prune_stop_position, n);
}

void CheckTuple(const TupleRelation& rel, int k, double phi, TiePolicy ties) {
  SCOPED_TRACE(::testing::Message() << "k=" << k << " phi=" << phi
                                    << " ties=" << static_cast<int>(ties));
  const auto prepared = QueryEngine::Prepare(rel);
  const std::vector<RankedTuple> unpruned =
      TupleQuantileRankTopK(*prepared, k, phi, ties);
  const PrunedTopKResult pruned =
      TupleQuantileRankTopKPrune(*prepared, k, phi, ties);
  ExpectSameTopK(unpruned, pruned, prepared->size());
}

void CheckAttr(const AttrRelation& rel, int k, double phi, TiePolicy ties) {
  const auto prepared = QueryEngine::Prepare(rel);
  const std::vector<RankedTuple> unpruned =
      AttrQuantileRankTopK(*prepared, k, phi, ties);
  const PrunedTopKResult pruned =
      AttrQuantileRankTopKPrune(*prepared, k, phi, ties);
  ExpectSameTopK(unpruned, pruned, prepared->size());
}

constexpr TiePolicy kPolicies[] = {TiePolicy::kStrictGreater,
                                   TiePolicy::kBreakByIndex};
constexpr double kPhis[] = {0.25, 0.5, 0.9, 1.0};
constexpr int kKs[] = {1, 5, 23};

TEST(TuplePruneIdentityTest, PaperExample) {
  for (TiePolicy ties : kPolicies) {
    for (double phi : kPhis) {
      for (int k : {1, 2, 3, 7}) {
        CheckTuple(PaperFig4(), k, phi, ties);
      }
    }
  }
}

TEST(TuplePruneIdentityTest, CorrelatedScenarios) {
  for (Correlation corr : {Correlation::kIndependent, Correlation::kPositive,
                           Correlation::kNegative}) {
    const TupleRelation rel = CorrelatedTupleRelation(600, corr, 7);
    for (TiePolicy ties : kPolicies) {
      for (double phi : kPhis) {
        for (int k : kKs) CheckTuple(rel, k, phi, ties);
      }
    }
  }
}

TEST(TuplePruneIdentityTest, ClusteredScores) {
  const TupleRelation rel = ClusteredScoreTupleRelation(500, 8, 11);
  for (TiePolicy ties : kPolicies) {
    for (double phi : kPhis) {
      for (int k : kKs) CheckTuple(rel, k, phi, ties);
    }
  }
}

TEST(TuplePruneIdentityTest, AdversarialRuleGraph) {
  const TupleRelation rel = AdversarialRuleTupleRelation(400, 5, 13);
  for (TiePolicy ties : kPolicies) {
    for (double phi : kPhis) {
      for (int k : kKs) CheckTuple(rel, k, phi, ties);
    }
  }
}

TEST(TuplePruneIdentityTest, WideRules) {
  const TupleRelation rel = WideRuleTupleRelation(800, 16, 17);
  for (TiePolicy ties : kPolicies) {
    for (double phi : kPhis) {
      for (int k : kKs) CheckTuple(rel, k, phi, ties);
    }
  }
}

TEST(TuplePruneIdentityTest, BoundedSupportScale) {
  // The N=1M benchmark shape at test size: a few wide rules carry every
  // tuple past a certain-tuple prefix.
  const TupleRelation rel =
      testgen::BoundedSupportTupleRelation(3000, 32, 50, 37);
  for (TiePolicy ties : kPolicies) {
    for (double phi : kPhis) {
      for (int k : kKs) CheckTuple(rel, k, phi, ties);
    }
  }
}

TEST(TuplePruneIdentityTest, KLargerThanRelation) {
  const TupleRelation rel = CorrelatedTupleRelation(20, Correlation::kPositive,
                                                    3);
  CheckTuple(rel, 50, 0.5, TiePolicy::kBreakByIndex);
}

TEST(TuplePruneTest, PositiveCorrelationActuallyPrunes) {
  // High scores carry high existence probability: the certain-prefix
  // bound must fire well before the end of a 4000-tuple stream for a
  // small k. This pins the perf property, not just the identity.
  const TupleRelation rel =
      CorrelatedTupleRelation(4000, Correlation::kPositive, 29);
  const auto prepared = QueryEngine::Prepare(rel);
  const PrunedTopKResult pruned =
      TupleQuantileRankTopKPrune(*prepared, 10, 0.5);
  EXPECT_LT(pruned.prune_stop_position, prepared->size() / 2)
      << "bound never fired on the friendliest workload";
  ExpectSameTopK(TupleQuantileRankTopK(*prepared, 10, 0.5), pruned,
                 prepared->size());
}

TEST(AttrPruneIdentityTest, PaperExample) {
  for (TiePolicy ties : kPolicies) {
    for (double phi : kPhis) {
      for (int k : {1, 2, 3, 5}) {
        CheckAttr(PaperFig2(), k, phi, ties);
      }
    }
  }
}

TEST(AttrPruneIdentityTest, ClusteredScores) {
  const AttrRelation rel = ClusteredScoreAttrRelation(300, 6, 4, 19);
  for (TiePolicy ties : kPolicies) {
    for (double phi : kPhis) {
      for (int k : kKs) CheckAttr(rel, k, phi, ties);
    }
  }
}

TEST(AttrPruneIdentityTest, NegativeSupportDegradesToFullScan) {
  // Negative support values invalidate the Markov step of the bound; the
  // kernel must fall back to a full exact scan, not a wrong answer.
  std::vector<AttrTuple> tuples;
  for (int i = 0; i < 60; ++i) {
    AttrTuple t;
    t.id = i;
    t.pdf = {{-100.0 + i, 0.5}, {static_cast<double>(i), 0.5}};
    tuples.push_back(std::move(t));
  }
  const AttrRelation rel(std::move(tuples));
  const auto prepared = QueryEngine::Prepare(rel);
  const PrunedTopKResult pruned =
      AttrQuantileRankTopKPrune(*prepared, 5, 0.5);
  EXPECT_EQ(pruned.prune_stop_position, prepared->size());
  ExpectSameTopK(AttrQuantileRankTopK(*prepared, 5, 0.5), pruned,
                 prepared->size());
}

TEST(AttrPruneTest, ConcentratedScoresActuallyPrune) {
  // Distinct well-separated expected scores with narrow pdfs: the value-
  // ladder bound must stop the scan early.
  std::vector<AttrTuple> tuples;
  for (int i = 0; i < 800; ++i) {
    AttrTuple t;
    t.id = i;
    const double centre = 10000.0 - 10.0 * i;
    t.pdf = {{centre - 1.0, 0.25}, {centre, 0.5}, {centre + 1.0, 0.25}};
    tuples.push_back(std::move(t));
  }
  const AttrRelation rel(std::move(tuples));
  const auto prepared = QueryEngine::Prepare(rel);
  const PrunedTopKResult pruned =
      AttrQuantileRankTopKPrune(*prepared, 10, 0.5);
  EXPECT_LT(pruned.prune_stop_position, prepared->size())
      << "attr bound never fired on well-separated scores";
  ExpectSameTopK(AttrQuantileRankTopK(*prepared, 10, 0.5), pruned,
                 prepared->size());
}

TEST(PruneEngineTest, QueryRequestPruneIsIdenticalAndReportsStats) {
  const TupleRelation rel = WideRuleTupleRelation(1200, 8, 23);
  QueryEngine engine{QueryEngine::Prepare(rel)};

  QueryRequest plain;
  plain.options.semantics = RankingSemantics::kQuantileRank;
  plain.options.k = 10;
  plain.options.phi = 0.5;

  QueryRequest pruned = plain;
  pruned.prune = true;

  // Fresh-engine order matters: run the pruned request first so it cannot
  // be served from a memo the plain request warmed.
  const QueryResult pr = engine.Run(pruned);
  ASSERT_TRUE(pr.status.ok());
  EXPECT_GT(pr.stats.tuples_scanned, 0);
  EXPECT_GE(pr.stats.prune_stop_position, pr.stats.tuples_scanned);
  EXPECT_FALSE(pr.stats.reused_cache);

  const QueryResult base = engine.Run(plain);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(pr.answer.ids, base.answer.ids);
  EXPECT_EQ(pr.answer.statistics, base.answer.statistics);

  // A pruned run never populates the statistic memo, so the plain run
  // above was a cache miss; now that the memo is warm, a prune request is
  // served from cache (cheaper than scanning).
  EXPECT_FALSE(base.stats.reused_cache);
  const QueryResult cached = engine.Run(pruned);
  ASSERT_TRUE(cached.status.ok());
  EXPECT_TRUE(cached.stats.reused_cache);
  EXPECT_EQ(cached.stats.tuples_scanned, 0);
  EXPECT_EQ(cached.stats.prune_stop_position, -1);
  EXPECT_EQ(cached.answer.ids, base.answer.ids);

  // Prune is ignored for semantics without a pruned kernel.
  QueryRequest es = pruned;
  es.options.semantics = RankingSemantics::kExpectedScore;
  const QueryResult es_result = engine.Run(es);
  ASSERT_TRUE(es_result.status.ok());
  EXPECT_EQ(es_result.stats.tuples_scanned, 0);
  EXPECT_EQ(es_result.stats.prune_stop_position, -1);
}

TEST(PruneEngineTest, MedianRankPruneMatchesAttr) {
  const AttrRelation rel = ClusteredScoreAttrRelation(200, 5, 3, 31);
  QueryEngine engine{QueryEngine::Prepare(rel)};
  QueryRequest req;
  req.options.semantics = RankingSemantics::kMedianRank;
  req.options.k = 7;
  req.prune = true;
  const QueryResult pr = engine.Run(req);
  ASSERT_TRUE(pr.status.ok());
  req.prune = false;
  const QueryResult base = engine.Run(req);
  ASSERT_TRUE(base.status.ok());
  EXPECT_EQ(pr.answer.ids, base.answer.ids);
  EXPECT_EQ(pr.answer.statistics, base.answer.statistics);
}

}  // namespace
}  // namespace urank
