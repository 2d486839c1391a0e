// Blocked streaming preparation vs the eager constructors: a builder fed
// arbitrary block splits of a relation must produce a PreparedRelation
// whose every derived structure — sort orders, sequential prefix sums,
// value universe, shard plan — is bit-identical (EXPECT_EQ on doubles, no
// tolerance) to eagerly preparing the whole relation, and whose engine
// answers match across semantics.

#include "core/engine/prepared_builder.h"

#include <algorithm>
#include <memory>
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
using testgen::SplitIntoBlocks;
using testgen::WideRuleTupleRelation;

void ExpectSameTupleShardPlan(const internal::TupleShardPlan& a,
                              const internal::TupleShardPlan& b) {
  EXPECT_EQ(a.num_rules, b.num_rules);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t s = 0; s < a.shards.size(); ++s) {
    const internal::TupleShard& sa = a.shards[s];
    const internal::TupleShard& sb = b.shards[s];
    EXPECT_EQ(sa.begin, sb.begin) << "shard " << s;
    EXPECT_EQ(sa.end, sb.end) << "shard " << s;
    EXPECT_EQ(sa.home_node, sb.home_node) << "shard " << s;
    EXPECT_EQ(sa.entry_prefix, sb.entry_prefix) << "shard " << s;
    EXPECT_EQ(sa.entry_rule_mass, sb.entry_rule_mass) << "shard " << s;
    ASSERT_EQ(sa.order.size(), sb.order.size()) << "shard " << s;
    for (size_t j = 0; j < sa.order.size(); ++j) {
      EXPECT_EQ(sa.order[j], sb.order[j]) << "shard " << s << " pos " << j;
      EXPECT_EQ(sa.pref[j], sb.pref[j]) << "shard " << s << " pos " << j;
    }
  }
}

void ExpectBlockedTupleIdentity(const TupleRelation& rel, int block) {
  const auto eager = QueryEngine::Prepare(rel);

  PreparedTupleRelationBuilder builder;
  const testgen::TupleBlocks blocks = SplitIntoBlocks(rel, block);
  for (size_t b = 0; b < blocks.tuples.size(); ++b) {
    builder.AddBlock(blocks.tuples[b], blocks.rule_keys[b]);
  }
  EXPECT_EQ(builder.size(), static_cast<long long>(rel.size()));
  const auto blocked = builder.Seal();

  ASSERT_EQ(blocked->size(), eager->size());
  EXPECT_EQ(blocked->relation().num_rules(), rel.num_rules());
  EXPECT_EQ(blocked->rank_order(), eager->rank_order());
  EXPECT_EQ(blocked->prefix_prob(), eager->prefix_prob());
  EXPECT_EQ(blocked->ids(), eager->ids());
  ExpectSameTupleShardPlan(blocked->shard_plan(), eager->shard_plan());

  // Engine answers across every tuple-level semantics must match too.
  QueryEngine blocked_engine{blocked};
  QueryEngine eager_engine{eager};
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUKRanks,
        RankingSemantics::kPTk, RankingSemantics::kGlobalTopk,
        RankingSemantics::kExpectedScore}) {
    QueryRequest req;
    req.options.semantics = semantics;
    req.options.k = 7;
    req.options.phi = 0.6;
    req.options.threshold = 0.05;
    const QueryResult a = blocked_engine.Run(req);
    const QueryResult b = eager_engine.Run(req);
    ASSERT_TRUE(a.status.ok()) << ToString(semantics);
    ASSERT_TRUE(b.status.ok()) << ToString(semantics);
    EXPECT_EQ(a.answer.ids, b.answer.ids) << ToString(semantics);
    EXPECT_EQ(a.answer.statistics, b.answer.statistics)
        << ToString(semantics);
  }
}

void ExpectBlockedAttrIdentity(const AttrRelation& rel, int block) {
  const auto eager = QueryEngine::Prepare(rel);

  PreparedAttrRelationBuilder builder;
  for (int begin = 0; begin < rel.size(); begin += block) {
    const int end = std::min(begin + block, rel.size());
    std::vector<AttrTuple> tuples;
    for (int i = begin; i < end; ++i) tuples.push_back(rel.tuple(i));
    builder.AddBlock(std::move(tuples));
  }
  EXPECT_EQ(builder.size(), static_cast<long long>(rel.size()));
  const auto blocked = builder.Seal();

  ASSERT_EQ(blocked->size(), eager->size());
  EXPECT_EQ(blocked->escore_order(), eager->escore_order());
  EXPECT_EQ(blocked->expected_scores(), eager->expected_scores());
  EXPECT_EQ(blocked->ids(), eager->ids());
  EXPECT_EQ(blocked->universe().values, eager->universe().values);
  EXPECT_EQ(blocked->universe().mass, eager->universe().mass);
  EXPECT_EQ(blocked->universe().suffix, eager->universe().suffix);
  ASSERT_EQ(blocked->sorted_pdfs().size(), eager->sorted_pdfs().size());
  for (size_t i = 0; i < eager->sorted_pdfs().size(); ++i) {
    EXPECT_EQ(blocked->sorted_pdfs()[i].values,
              eager->sorted_pdfs()[i].values) << "pdf " << i;
    EXPECT_EQ(blocked->sorted_pdfs()[i].probs,
              eager->sorted_pdfs()[i].probs) << "pdf " << i;
    EXPECT_EQ(blocked->sorted_pdfs()[i].suffix,
              eager->sorted_pdfs()[i].suffix) << "pdf " << i;
  }
  const internal::AttrShardPlan& pa = blocked->shard_plan();
  const internal::AttrShardPlan& pb = eager->shard_plan();
  ASSERT_EQ(pa.shards.size(), pb.shards.size());
  for (size_t s = 0; s < pa.shards.size(); ++s) {
    EXPECT_EQ(pa.shards[s].begin, pb.shards[s].begin) << "shard " << s;
    EXPECT_EQ(pa.shards[s].end, pb.shards[s].end) << "shard " << s;
    EXPECT_EQ(pa.shards[s].home_node, pb.shards[s].home_node)
        << "shard " << s;
    EXPECT_EQ(pa.shards[s].tie_offset, pb.shards[s].tie_offset)
        << "shard " << s;
    EXPECT_EQ(pa.shards[s].tie_mass, pb.shards[s].tie_mass)
        << "shard " << s;
  }

  QueryEngine blocked_engine{blocked};
  QueryEngine eager_engine{eager};
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUKRanks,
        RankingSemantics::kPTk, RankingSemantics::kGlobalTopk,
        RankingSemantics::kExpectedScore}) {
    QueryRequest req;
    req.options.semantics = semantics;
    req.options.k = std::min(5, rel.size());  // k <= N (kInvalidK above)
    req.options.phi = 0.4;
    req.options.threshold = 0.05;
    const QueryResult a = blocked_engine.Run(req);
    const QueryResult b = eager_engine.Run(req);
    ASSERT_TRUE(a.status.ok()) << ToString(semantics);
    ASSERT_TRUE(b.status.ok()) << ToString(semantics);
    EXPECT_EQ(a.answer.ids, b.answer.ids) << ToString(semantics);
    EXPECT_EQ(a.answer.statistics, b.answer.statistics)
        << ToString(semantics);
  }
}

TEST(PreparedTupleBuilderTest, IndependentTuplesAnyBlocking) {
  const TupleRelation rel =
      CorrelatedTupleRelation(257, Correlation::kIndependent, 5);
  for (int block : {1, 7, 64, 257, 1000}) {
    ExpectBlockedTupleIdentity(rel, block);
  }
}

TEST(PreparedTupleBuilderTest, ClusteredTiesAcrossBlockBoundaries) {
  // Equal-score runs longer than the block size force the merge to
  // interleave tied tuples from many runs; index tie-break keeps the
  // sequence unique.
  const TupleRelation rel = ClusteredScoreTupleRelation(300, 4, 9);
  for (int block : {3, 50, 128}) {
    ExpectBlockedTupleIdentity(rel, block);
  }
}

TEST(PreparedTupleBuilderTest, RulesSpanningBlocks) {
  const TupleRelation rel = AdversarialRuleTupleRelation(240, 6, 15);
  for (int block : {10, 77, 240}) {
    ExpectBlockedTupleIdentity(rel, block);
  }
}

TEST(PreparedTupleBuilderTest, WideRuleMix) {
  const TupleRelation rel = WideRuleTupleRelation(500, 12, 21);
  for (int block : {64, 333}) {
    ExpectBlockedTupleIdentity(rel, block);
  }
}

TEST(PreparedTupleBuilderTest, EmptyRelation) {
  PreparedTupleRelationBuilder builder;
  const auto prepared = builder.Seal();
  EXPECT_EQ(prepared->size(), 0);
}

TEST(PreparedTupleBuilderDeathTest, RejectsUseAfterSeal) {
  PreparedTupleRelationBuilder builder;
  builder.AddBlock({TLTuple{0, 1.0, 0.5}});
  builder.Seal();
  EXPECT_DEATH(builder.AddBlock({TLTuple{1, 2.0, 0.5}}), "sealed");
  EXPECT_DEATH(builder.Seal(), "twice");
}

TEST(PreparedTupleBuilderDeathTest, RejectsMismatchedRuleKeys) {
  PreparedTupleRelationBuilder builder;
  EXPECT_DEATH(
      builder.AddBlock({TLTuple{0, 1.0, 0.5}, TLTuple{1, 2.0, 0.5}}, {4}),
      "rule_keys");
}

TEST(PreparedAttrBuilderTest, ClusteredPdfsAnyBlocking) {
  const AttrRelation rel = ClusteredScoreAttrRelation(150, 5, 4, 27);
  for (int block : {1, 11, 64, 150}) {
    ExpectBlockedAttrIdentity(rel, block);
  }
}

TEST(PreparedAttrBuilderTest, PaperExample) {
  ExpectBlockedAttrIdentity(testing_util::PaperFig2(), 1);
}

TEST(PreparedAttrBuilderDeathTest, RejectsUseAfterSeal) {
  PreparedAttrRelationBuilder builder;
  AttrTuple t;
  t.id = 0;
  t.pdf = {{1.0, 1.0}};
  builder.AddBlock({t});
  builder.Seal();
  EXPECT_DEATH(builder.AddBlock({t}), "sealed");
  EXPECT_DEATH(builder.Seal(), "twice");
}

// The stream orders the pruned scans walk: escore_order() for the
// attribute-level ones (A-ERank-Prune, the quantile prune), rank_order()
// for the tuple-level ones.
TEST(PreparedStreamOrderTest, AttrEscoreOrderDescendsByExpectedScore) {
  const PreparedAttrRelation prepared = testing_util::Prepared(
      ClusteredScoreAttrRelation(200, 5, 3, 61));
  const std::vector<int>& order = prepared.escore_order();
  ASSERT_EQ(order.size(), 200u);
  for (size_t i = 1; i < order.size(); ++i) {
    const double prev = prepared.expected_scores()[order[i - 1]];
    const double cur = prepared.expected_scores()[order[i]];
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
}

TEST(PreparedStreamOrderTest, AttrFig2Order) {
  // E[X1] = 82, E[X2] = 87.2, E[X3] = 85: order t2, t3, t1.
  const PreparedAttrRelation prepared =
      testing_util::Prepared(testing_util::PaperFig2());
  EXPECT_EQ(prepared.escore_order(), (std::vector<int>{1, 2, 0}));
}

TEST(PreparedStreamOrderTest, AttrTieOnExpectedScoreBreaksByIndex) {
  const PreparedAttrRelation prepared = testing_util::Prepared(
      AttrRelation({{5, {{10.0, 1.0}}}, {3, {{10.0, 1.0}}}}));
  EXPECT_EQ(prepared.escore_order(), (std::vector<int>{0, 1}));
}

TEST(PreparedStreamOrderTest, TupleRankOrderDescendsByScore) {
  const PreparedTupleRelation prepared =
      testing_util::Prepared(ClusteredScoreTupleRelation(300, 7, 67));
  const std::vector<int>& order = prepared.rank_order();
  ASSERT_EQ(order.size(), 300u);
  for (size_t i = 1; i < order.size(); ++i) {
    const double prev = prepared.relation().tuple(order[i - 1]).score;
    const double cur = prepared.relation().tuple(order[i]).score;
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
  EXPECT_DOUBLE_EQ(testing_util::Prepared(testing_util::PaperFig4())
                       .expected_world_size(),
                   2.4);
}

TEST(PreparedStreamOrderTest, TupleEmptyRelation) {
  const PreparedTupleRelation prepared =
      testing_util::Prepared(TupleRelation::Independent({}));
  EXPECT_TRUE(prepared.rank_order().empty());
  EXPECT_EQ(prepared.size(), 0);
}

}  // namespace
}  // namespace urank
