// Empty relations end to end: zero-block builder Seal, every ranking
// semantics answering an empty top-k through a shared engine and through
// a fresh engine per query, and the mutable stores publishing empty
// epochs (including a relation
// mutated down to empty). The engine short-circuits n == 0 before kernel
// dispatch; the kernel-level non-empty contracts stay as hard CHECKs,
// death-tested at the bottom so a future regression to the old abort
// behavior (or a silent contract removal) is caught either way.

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "core/engine/mutable_relation.h"
#include "core/engine/prepared_builder.h"
#include "core/engine/query_engine.h"
#include "core/quantile_rank.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace urank {
namespace {

constexpr RankingSemantics kAllSemantics[] = {
    RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
    RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
    RankingSemantics::kUKRanks,      RankingSemantics::kPTk,
    RankingSemantics::kGlobalTopk,   RankingSemantics::kExpectedScore,
};

QueryRequest Req(RankingSemantics semantics) {
  QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = 3;
  request.options.phi = 0.5;
  request.options.threshold = 0.5;
  return request;
}

TEST(EmptyRelationTest, ZeroBlockTupleSeal) {
  PreparedTupleRelationBuilder builder;
  std::shared_ptr<const PreparedTupleRelation> prepared = builder.Seal();
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(prepared->size(), 0);
  EXPECT_TRUE(prepared->ids().empty());
  EXPECT_EQ(prepared->relation().num_rules(), 0);
}

TEST(EmptyRelationTest, ZeroBlockAttrSeal) {
  PreparedAttrRelationBuilder builder;
  std::shared_ptr<const PreparedAttrRelation> prepared = builder.Seal();
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(prepared->size(), 0);
  EXPECT_TRUE(prepared->ids().empty());
  EXPECT_TRUE(prepared->universe().values.empty());
}

TEST(EmptyRelationTest, EngineAnswersAllSemanticsOnEmptyTupleRelation) {
  QueryEngine engine{TupleRelation()};
  for (RankingSemantics semantics : kAllSemantics) {
    QueryResult result = engine.Run(Req(semantics));
    ASSERT_TRUE(result.status.ok())
        << ToString(semantics) << ": " << result.status.message;
    EXPECT_TRUE(result.answer.ids.empty()) << ToString(semantics);
    EXPECT_TRUE(result.answer.statistics.empty()) << ToString(semantics);
  }
}

TEST(EmptyRelationTest, EngineAnswersAllSemanticsOnEmptyAttrRelation) {
  QueryEngine engine{AttrRelation()};
  for (RankingSemantics semantics : kAllSemantics) {
    QueryResult result = engine.Run(Req(semantics));
    ASSERT_TRUE(result.status.ok())
        << ToString(semantics) << ": " << result.status.message;
    EXPECT_TRUE(result.answer.ids.empty()) << ToString(semantics);
  }
}

TEST(EmptyRelationTest, FacadeAnswersEmptyTopK) {
  // One-shot queries, the way the removed one-shot facade ran them:
  // each query prepares its own engine, so no statistic memo is shared.
  // Any k >= 1 is valid on an empty relation (the k <= N bound applies to
  // non-empty relations only).
  for (RankingSemantics semantics : kAllSemantics) {
    QueryRequest request = Req(semantics);
    request.options.k = 5;
    const QueryResult tuple = QueryEngine(TupleRelation()).Run(request);
    const QueryResult attr = QueryEngine(AttrRelation()).Run(request);
    ASSERT_TRUE(tuple.status.ok()) << ToString(semantics);
    ASSERT_TRUE(attr.status.ok()) << ToString(semantics);
    EXPECT_TRUE(tuple.answer.ids.empty()) << ToString(semantics);
    EXPECT_TRUE(attr.answer.ids.empty()) << ToString(semantics);
  }
}

TEST(EmptyRelationTest, ParameterValidationStillRunsOnEmptyRelations) {
  // The empty early-out must not swallow option errors: an invalid phi is
  // an invalid request regardless of relation size.
  QueryEngine engine{TupleRelation()};
  QueryRequest request = Req(RankingSemantics::kQuantileRank);
  request.options.phi = 0.0;
  EXPECT_EQ(engine.Run(request).status.code, QueryStatusCode::kInvalidPhi);
  request = Req(RankingSemantics::kExpectedRank);
  request.options.k = 0;
  EXPECT_EQ(engine.Run(request).status.code, QueryStatusCode::kInvalidK);
}

TEST(EmptyRelationTest, MutatedToEmptyStillAnswers) {
  auto store = std::make_shared<MutableTupleRelation>();
  QueryEngine engine(store);
  TLTuple t;
  t.id = 1;
  t.score = 10.0;
  t.prob = 0.5;
  ASSERT_TRUE(store->Insert(t, -1, nullptr));
  store->Publish();
  ASSERT_TRUE(store->Delete(1, nullptr));
  const std::uint64_t epoch = store->Publish().epoch;
  EXPECT_EQ(epoch, 3u);
  for (RankingSemantics semantics : kAllSemantics) {
    QueryResult result = engine.Run(Req(semantics));
    ASSERT_TRUE(result.status.ok()) << ToString(semantics);
    EXPECT_TRUE(result.answer.ids.empty()) << ToString(semantics);
    EXPECT_EQ(result.stats.epoch, epoch);
  }
}

TEST(EmptyRelationDeathTest, KernelLevelEmptyPmfContractStillAborts) {
  // The engine's early-out is the supported empty path; the low-level
  // kernels keep their non-empty preconditions. This is the abort a
  // one-shot query used to hit before the engine handled n == 0.
  EXPECT_DEATH(QuantileFromPmf(std::vector<double>{}, 0.5),
               "pmf must be non-empty");
}

}  // namespace
}  // namespace urank
