// Unit tests for the mutable stores (core/engine/mutable_relation.h):
// mutation contracts and rollback, epoch lifecycle, snapshot isolation,
// delta consolidation and compaction bookkeeping. Behaviour the store
// template shares is one typed suite over both instantiations; the model
// contracts (rule mass, pdf validation) stay per model. The bit-identity of
// published epochs against from-scratch prepares is the epoch-identity
// suite's job (epoch_identity_test.cc); here we pin the store mechanics.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace urank {

// Per-model test vocabulary, the type parameter of the typed suite that
// checks the shared store behaviour on both instantiations. Named outside
// the anonymous namespace so test names print a short type.
namespace store_test {

struct Tuple {
  using Store = MutableTupleRelation;
  static TLTuple Row(int id, double score) { return {id, score, 0.5}; }
  static bool Insert(Store& store, int id, double score,
                     std::string* error = nullptr) {
    return store.Insert(Row(id, score), -1, error);
  }
};

struct Attr {
  using Store = MutableAttrRelation;
  static AttrTuple Row(int id, double score) {
    return {id, {{score, 0.5}, {score + 0.25, 0.5}}};
  }
  static bool Insert(Store& store, int id, double score,
                     std::string* error = nullptr) {
    return store.Insert(Row(id, score), error);
  }
};

}  // namespace store_test

namespace {

TLTuple T(int id, double score, double prob) {
  TLTuple t;
  t.id = id;
  t.score = score;
  t.prob = prob;
  return t;
}

AttrTuple A(int id, std::vector<ScoreValue> pdf) {
  AttrTuple t;
  t.id = id;
  t.pdf = std::move(pdf);
  return t;
}

template <typename Model>
class MutableRelationTest : public ::testing::Test {};

using Models = ::testing::Types<store_test::Tuple, store_test::Attr>;
TYPED_TEST_SUITE(MutableRelationTest, Models);

TYPED_TEST(MutableRelationTest, ConstructorPublishesEpochOne) {
  typename TypeParam::Store store;
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.live_size(), 0);
  const auto snap = store.Snapshot();
  ASSERT_NE(snap.prepared, nullptr);
  EXPECT_EQ(snap.epoch, 1u);
  EXPECT_EQ(snap.prepared->size(), 0);
}

TYPED_TEST(MutableRelationTest, MutationsInvisibleUntilPublish) {
  using M = TypeParam;
  typename M::Store store;
  ASSERT_TRUE(M::Insert(store, 1, 10.0));
  EXPECT_TRUE(store.dirty());
  EXPECT_EQ(store.live_size(), 1);
  // Readers still see epoch 1 (empty) until Publish.
  EXPECT_EQ(store.Snapshot().prepared->size(), 0);
  const auto snap = store.Publish();
  EXPECT_EQ(snap.epoch, 2u);
  EXPECT_EQ(snap.prepared->size(), 1);
  EXPECT_FALSE(store.dirty());
}

TYPED_TEST(MutableRelationTest, PublishWithoutPendingMutationsIsIdempotent) {
  using M = TypeParam;
  typename M::Store store;
  ASSERT_TRUE(M::Insert(store, 1, 10.0));
  const auto first = store.Publish();
  const auto second = store.Publish();
  EXPECT_EQ(second.epoch, first.epoch);
  EXPECT_EQ(second.prepared.get(), first.prepared.get());
}

TYPED_TEST(MutableRelationTest, SnapshotIsolationAcrossPublishes) {
  using M = TypeParam;
  typename M::Store store;
  ASSERT_TRUE(M::Insert(store, 1, 10.0));
  store.Publish();
  const auto before = store.Snapshot();
  ASSERT_TRUE(M::Insert(store, 2, 20.0));
  store.Publish();
  // The old snapshot still reads its own epoch's contents.
  EXPECT_EQ(before.epoch, 2u);
  EXPECT_EQ(before.prepared->size(), 1);
  EXPECT_EQ(store.Snapshot().epoch, 3u);
  EXPECT_EQ(store.Snapshot().prepared->size(), 2);
}

TYPED_TEST(MutableRelationTest, RejectsDuplicateLiveId) {
  using M = TypeParam;
  typename M::Store store;
  ASSERT_TRUE(M::Insert(store, 1, 10.0));
  std::string error;
  EXPECT_FALSE(M::Insert(store, 1, 5.0, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // The id becomes insertable again once the live holder dies.
  ASSERT_TRUE(store.Delete(1, nullptr));
  EXPECT_TRUE(M::Insert(store, 1, 5.0));
}

TYPED_TEST(MutableRelationTest, ApplyIsAllOrNothing) {
  using M = TypeParam;
  typename M::Store store;
  ASSERT_TRUE(M::Insert(store, 1, 10.0));
  store.Publish();

  std::vector<typename M::Store::Mutation> batch(3);
  batch[0].op = MutationOp::kInsert;
  batch[0].tuple = M::Row(2, 9.0);
  batch[1].op = MutationOp::kDelete;
  batch[1].id = 1;
  batch[2].op = MutationOp::kInsert;
  batch[2].tuple = M::Row(2, 8.0);  // duplicate of batch[0]: fails

  std::string error;
  EXPECT_FALSE(store.Apply(batch, &error));
  EXPECT_NE(error.find("op 2"), std::string::npos) << error;
  // Rolled back wholesale: tuple 1 alive, tuple 2 absent, nothing dirty
  // beyond the already-published state.
  EXPECT_EQ(store.live_size(), 1);
  const auto snap = store.Publish();
  ASSERT_EQ(snap.prepared->size(), 1);
  EXPECT_EQ(snap.prepared->relation().tuple(0).id, 1);

  batch[2].tuple.id = 3;
  EXPECT_TRUE(store.Apply(batch, &error)) << error;
  EXPECT_EQ(store.live_size(), 2);
}

TYPED_TEST(MutableRelationTest, DeltaConsolidationAndCompactionCounters) {
  using M = TypeParam;
  MutableRelationOptions options;
  options.delta_merge_threshold = 4;
  options.compact_min_dead = 2;
  typename M::Store store(options);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(M::Insert(store, i, 100.0 - i));
  store.Publish();  // 8 >= 4: consolidates
  EXPECT_GE(store.delta_merges(), 1u);
  const std::uint64_t merges_before = store.delta_merges();
  ASSERT_TRUE(M::Insert(store, 100, 50.0));
  store.Publish();  // 1 < 4: merged on the fly, not consolidated
  EXPECT_EQ(store.delta_merges(), merges_before);

  // Kill 7 of the 9 live entries so the dead outnumber the live (7 > 6
  // after the four fresh inserts); the next consolidation compacts.
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(store.Delete(i, nullptr));
  for (int i = 200; i < 204; ++i) ASSERT_TRUE(M::Insert(store, i, 10.0 + i));
  const auto snap = store.Publish();
  EXPECT_EQ(store.compactions(), 1u);
  EXPECT_EQ(snap.prepared->size(), 6);
  EXPECT_EQ(store.live_size(), 6);
}

TYPED_TEST(MutableRelationTest, EnsureEpochAtLeastOnlyRaises) {
  using M = TypeParam;
  typename M::Store store;
  store.EnsureEpochAtLeast(10);
  EXPECT_EQ(store.epoch(), 10u);
  store.EnsureEpochAtLeast(4);
  EXPECT_EQ(store.epoch(), 10u);
  ASSERT_TRUE(M::Insert(store, 1, 1.0));
  EXPECT_EQ(store.Publish().epoch, 11u);
}

TEST(MutableTupleRelationTest, SeededConstructorPreservesContents) {
  std::vector<TLTuple> tuples = {T(7, 3.0, 0.5), T(3, 9.0, 0.25),
                                 T(5, 6.0, 0.4)};
  std::vector<std::vector<int>> rules = {{0, 2}};
  TupleRelation rel(tuples, rules);
  MutableTupleRelation store(rel);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.live_size(), 3);
  TupleEpochSnapshot snap = store.Snapshot();
  ASSERT_EQ(snap.prepared->size(), 3);
  // Arrival order is relation index order.
  EXPECT_EQ(snap.prepared->relation().tuple(0).id, 7);
  EXPECT_EQ(snap.prepared->relation().tuple(1).id, 3);
  EXPECT_EQ(snap.prepared->relation().tuple(2).id, 5);
  // One explicit rule plus the auto-appended singleton for tuple 3.
  EXPECT_EQ(snap.prepared->relation().num_rules(), 2);
}

TEST(MutableTupleRelationTest, RejectsInvalidTuplePayloads) {
  MutableTupleRelation store;
  std::string error;
  EXPECT_FALSE(store.Insert(T(1, 10.0, 0.0), -1, &error));
  EXPECT_FALSE(store.Insert(T(1, 10.0, 1.5), -1, &error));
  EXPECT_FALSE(
      store.Insert(T(1, std::nan(""), 0.5), -1, &error));
  EXPECT_FALSE(store.Delete(42, &error));
  EXPECT_NE(error.find("42"), std::string::npos) << error;
  EXPECT_FALSE(store.Update(T(42, 1.0, 0.5), -1, &error));
  EXPECT_EQ(store.live_size(), 0);
}

TEST(MutableTupleRelationTest, RuleMassGateMatchesModelContract) {
  MutableTupleRelation store;
  ASSERT_TRUE(store.Insert(T(1, 10.0, 0.6), 7, nullptr));
  ASSERT_TRUE(store.Insert(T(2, 9.0, 0.4), 7, nullptr));  // sum = 1.0: ok
  std::string error;
  EXPECT_FALSE(store.Insert(T(3, 8.0, 0.1), 7, &error));
  EXPECT_NE(error.find("rule"), std::string::npos) << error;
  // Freeing mass in the rule re-admits the insert.
  ASSERT_TRUE(store.Delete(2, nullptr));
  EXPECT_TRUE(store.Insert(T(3, 8.0, 0.1), 7, nullptr));
  // Publishing must not abort in TupleRelation's validation.
  TupleEpochSnapshot snap = store.Publish();
  EXPECT_EQ(snap.prepared->size(), 2);
  EXPECT_EQ(snap.prepared->relation().num_rules(), 1);
}

TEST(MutableTupleRelationTest, UpdateMovesTupleBetweenRules) {
  MutableTupleRelation store;
  ASSERT_TRUE(store.Insert(T(1, 10.0, 0.9), 1, nullptr));
  ASSERT_TRUE(store.Insert(T(2, 9.0, 0.9), 2, nullptr));
  // Moving tuple 1 into rule 2 would push rule 2's mass to 1.8: rejected,
  // and the rollback must leave tuple 1 alive in rule 1.
  std::string error;
  EXPECT_FALSE(store.Update(T(1, 10.0, 0.9), 2, &error));
  EXPECT_EQ(store.live_size(), 2);
  EXPECT_TRUE(store.Update(T(1, 10.0, 0.05), 2, nullptr));
  TupleEpochSnapshot snap = store.Publish();
  ASSERT_EQ(snap.prepared->size(), 2);
  // Rule numbering follows first live appearance in arrival order: the
  // update re-inserted tuple 1 at the tail, so rule 2 (holding tuple 2)
  // is now rule 0 and holds both tuples.
  EXPECT_EQ(snap.prepared->relation().num_rules(), 1);
}

TEST(MutableAttrRelationTest, InsertDeleteUpdateLifecycle) {
  MutableAttrRelation store;
  EXPECT_EQ(store.epoch(), 1u);
  ASSERT_TRUE(store.Insert(A(1, {{10.0, 0.5}, {20.0, 0.5}}), nullptr));
  ASSERT_TRUE(store.Insert(A(2, {{15.0, 1.0}}), nullptr));
  AttrEpochSnapshot snap = store.Publish();
  EXPECT_EQ(snap.epoch, 2u);
  ASSERT_EQ(snap.prepared->size(), 2);

  ASSERT_TRUE(store.Update(A(1, {{30.0, 1.0}}), nullptr));
  ASSERT_TRUE(store.Delete(2, nullptr));
  snap = store.Publish();
  EXPECT_EQ(snap.epoch, 3u);
  ASSERT_EQ(snap.prepared->size(), 1);
  EXPECT_EQ(snap.prepared->relation().tuple(0).id, 1);
  EXPECT_EQ(snap.prepared->relation().tuple(0).pdf.size(), 1u);
}

TEST(MutableAttrRelationTest, SeededConstructorPreservesContents) {
  AttrRelation rel({A(7, {{3.0, 1.0}}), A(3, {{9.0, 0.5}, {1.0, 0.5}}),
                    A(5, {{6.0, 1.0}})});
  MutableAttrRelation store(rel);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.live_size(), 3);
  const AttrEpochSnapshot snap = store.Snapshot();
  ASSERT_EQ(snap.prepared->size(), 3);
  // Arrival order is relation index order; the seed matches an eager
  // prepare of the same relation.
  const PreparedAttrRelation eager(rel);
  EXPECT_EQ(snap.prepared->ids(), eager.ids());
  EXPECT_EQ(snap.prepared->escore_order(), eager.escore_order());
  EXPECT_EQ(snap.prepared->expected_scores(), eager.expected_scores());
  EXPECT_EQ(snap.prepared->universe().suffix, eager.universe().suffix);
}

TEST(MutableAttrRelationTest, RejectsInvalidPdfs) {
  MutableAttrRelation store;
  std::string error;
  EXPECT_FALSE(store.Insert(A(1, {}), &error));
  EXPECT_FALSE(store.Insert(A(1, {{10.0, 0.5}}), &error));  // mass != 1
  EXPECT_FALSE(
      store.Insert(A(1, {{10.0, 0.5}, {10.0, 0.5}}), &error));  // dup value
  EXPECT_FALSE(store.Delete(1, &error));
  EXPECT_EQ(store.live_size(), 0);
  EXPECT_TRUE(store.Insert(A(1, {{10.0, 0.5}, {20.0, 0.5}}), &error))
      << error;
}

TEST(MutableAttrRelationTest, ApplyRollsBackOnFailure) {
  MutableAttrRelation store;
  ASSERT_TRUE(store.Insert(A(1, {{10.0, 1.0}}), nullptr));
  store.Publish();
  std::vector<AttrMutation> batch(2);
  batch[0].op = AttrMutation::Op::kDelete;
  batch[0].id = 1;
  batch[1].op = AttrMutation::Op::kInsert;
  batch[1].tuple = A(2, {});  // invalid
  std::string error;
  EXPECT_FALSE(store.Apply(batch, &error));
  EXPECT_NE(error.find("op 1"), std::string::npos) << error;
  EXPECT_EQ(store.live_size(), 1);
  AttrEpochSnapshot snap = store.Publish();
  EXPECT_EQ(snap.prepared->size(), 1);
}

TEST(QueryEngineMutableTest, EngineResolvesLatestEpochPerRun) {
  auto store = std::make_shared<MutableTupleRelation>();
  QueryEngine engine(store);
  QueryRequest request;
  request.options.semantics = RankingSemantics::kExpectedRank;
  request.options.k = 2;

  QueryResult empty = engine.Run(request);
  ASSERT_TRUE(empty.status.ok()) << empty.status.message;
  EXPECT_TRUE(empty.answer.ids.empty());
  EXPECT_EQ(empty.stats.epoch, 1u);

  ASSERT_TRUE(store->Insert(T(1, 10.0, 0.5), -1, nullptr));
  ASSERT_TRUE(store->Insert(T(2, 9.0, 0.75), -1, nullptr));
  store->Publish();

  QueryResult filled = engine.Run(request);
  ASSERT_TRUE(filled.status.ok());
  EXPECT_EQ(filled.stats.epoch, 2u);
  EXPECT_EQ(filled.answer.ids.size(), 2u);
}

TEST(QueryEngineMutableTest, MinEpochGatesReadYourWrites) {
  auto store = std::make_shared<MutableTupleRelation>();
  QueryEngine engine(store);
  QueryRequest request;
  request.options.k = 1;
  request.min_epoch = 2;

  QueryResult stale = engine.Run(request);
  EXPECT_EQ(stale.status.code, QueryStatusCode::kEpochNotAvailable);
  EXPECT_EQ(stale.stats.epoch, 1u);

  ASSERT_TRUE(store->Insert(T(1, 10.0, 0.5), -1, nullptr));
  const std::uint64_t published = store->Publish().epoch;
  ASSERT_EQ(published, 2u);
  QueryResult fresh = engine.Run(request);
  EXPECT_TRUE(fresh.status.ok());
  EXPECT_EQ(fresh.stats.epoch, 2u);
}

TEST(QueryEngineMutableTest, StaticEngineReportsEpochZero) {
  std::vector<TLTuple> tuples = {T(1, 10.0, 0.5)};
  QueryEngine engine{TupleRelation(tuples, {})};
  QueryRequest request;
  request.options.k = 1;
  QueryResult result = engine.Run(request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.stats.epoch, 0u);
  request.min_epoch = 1;
  EXPECT_EQ(engine.Run(request).status.code,
            QueryStatusCode::kEpochNotAvailable);
}

}  // namespace
}  // namespace urank
