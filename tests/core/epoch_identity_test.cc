// Epoch identity: every epoch a mutable store publishes must be
// bit-identical — EXPECT_EQ on every id and every double of every
// semantics' answer — to a from-scratch prepare of the same logical
// contents (live entries in arrival order, rules grouped by key and
// numbered by first live appearance). The suite drives randomized
// mutation traces (inserts, deletes, updates, cross-x-relation rule
// moves, all-or-nothing batches) over the scenario_gen families, swept
// across delta-merge thresholds (1 = consolidate every publish, through
// never-consolidate), thread counts, synthetic topologies and placement
// policies — none of which may leak into answers.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "common/scenario_gen.h"
#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "util/rng.h"
#include "util/topology.h"

namespace urank {
namespace {

constexpr RankingSemantics kAllSemantics[] = {
    RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
    RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
    RankingSemantics::kUKRanks,      RankingSemantics::kPTk,
    RankingSemantics::kGlobalTopk,   RankingSemantics::kExpectedScore,
};

constexpr const char* kSyntheticTopologies[] = {"0-3;4-7",
                                                "0-1;2-3;4-5;6-11"};

constexpr PlacementPolicy kAllPlacements[] = {PlacementPolicy::kFlat,
                                              PlacementPolicy::kNodeLocal,
                                              PlacementPolicy::kSpread};

class ScopedPlanningTopology {
 public:
  explicit ScopedPlanningTopology(const char* spec) {
    Topology topo = Topology::SingleNode(1);
    std::string error;
    EXPECT_TRUE(Topology::Parse(spec, &topo, &error)) << error;
    SetGlobalTopologyForTest(topo);
  }
  ~ScopedPlanningTopology() { SetGlobalTopologyForTest(Topology::Detect()); }
};

// Shadow of a tuple store's logical contents, maintained by the exact
// rules the header documents: arrival order, tombstone + tail re-insert
// for updates, rules grouped by key and numbered by first live
// appearance. EagerRelation() is the from-scratch prepare's input.
class TupleShadow {
 public:
  void Seed(const TupleRelation& rel) {
    for (int i = 0; i < rel.size(); ++i) {
      entries_.push_back({rel.tuple(i), rel.rule_of(i) >= 0
                                            ? static_cast<long long>(
                                                  rel.rule_of(i))
                                            : -1});
    }
  }

  void Insert(const TLTuple& tuple, long long rule_key) {
    entries_.push_back({tuple, rule_key});
  }

  void Delete(int id) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->tuple.id == id) {
        entries_.erase(it);
        return;
      }
    }
    FAIL() << "shadow delete of unknown id " << id;
  }

  void Update(const TLTuple& tuple, long long rule_key) {
    Delete(tuple.id);
    Insert(tuple, rule_key);
  }

  // A uniformly random live id, or -1 when empty.
  int RandomId(Rng& rng) const {
    if (entries_.empty()) return -1;
    return entries_[static_cast<size_t>(rng.UniformInt(
                        0, static_cast<int64_t>(entries_.size()) - 1))]
        .tuple.id;
  }

  bool Contains(int id) const {
    for (const auto& e : entries_) {
      if (e.tuple.id == id) return true;
    }
    return false;
  }

  double LiveRuleMass(long long key) const {
    double mass = 0.0;
    for (const auto& e : entries_) {
      if (e.rule_key == key) mass += e.tuple.prob;
    }
    return mass;
  }

  size_t size() const { return entries_.size(); }

  TupleRelation EagerRelation() const {
    std::vector<TLTuple> tuples;
    tuples.reserve(entries_.size());
    std::vector<std::vector<int>> rules;
    std::unordered_map<long long, size_t> rule_of_key;
    for (size_t i = 0; i < entries_.size(); ++i) {
      tuples.push_back(entries_[i].tuple);
      const long long key = entries_[i].rule_key;
      if (key < 0) continue;
      const auto [it, inserted] = rule_of_key.try_emplace(key, rules.size());
      if (inserted) rules.emplace_back();
      rules[it->second].push_back(static_cast<int>(i));
    }
    return TupleRelation(std::move(tuples), std::move(rules));
  }

 private:
  struct Entry {
    TLTuple tuple;
    long long rule_key;
  };
  std::vector<Entry> entries_;
};

QueryRequest Req(RankingSemantics semantics, int k, int threads,
                 PlacementPolicy placement = PlacementPolicy::kFlat) {
  QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  request.options.phi = 0.25;
  request.options.threshold = 0.3;
  request.parallelism.threads = threads;
  request.parallelism.min_parallel_cells = 1;
  request.parallelism.placement = placement;
  return request;
}

// The identity check: one published epoch vs the eager prepare of the
// shadow contents, all eight semantics, exact equality on every byte of
// the answer.
template <typename Store, typename Relation>
void ExpectEpochIdentity(const Store& store, Relation eager_rel, int k,
                         int threads,
                         PlacementPolicy placement = PlacementPolicy::kFlat) {
  const auto snap = store.Snapshot();
  QueryEngine incremental(snap.prepared);
  QueryEngine eager{std::move(eager_rel)};
  for (RankingSemantics semantics : kAllSemantics) {
    const QueryRequest request = Req(semantics, k, threads, placement);
    const QueryResult got = incremental.Run(request);
    const QueryResult want = eager.Run(request);
    ASSERT_EQ(got.status.code, want.status.code)
        << ToString(semantics) << " at epoch " << snap.epoch << ": "
        << got.status.message << " vs " << want.status.message;
    if (!want.status.ok()) continue;
    EXPECT_EQ(got.answer.ids, want.answer.ids)
        << ToString(semantics) << " at epoch " << snap.epoch;
    ASSERT_EQ(got.answer.statistics.size(), want.answer.statistics.size())
        << ToString(semantics) << " at epoch " << snap.epoch;
    for (size_t i = 0; i < want.answer.statistics.size(); ++i) {
      EXPECT_EQ(got.answer.statistics[i], want.answer.statistics[i])
          << ToString(semantics) << " slot " << i << " at epoch "
          << snap.epoch;
    }
  }
}

// Applies one random mutation to store + shadow. Returns false when the
// draw was a no-op (e.g. delete on an empty relation).
bool RandomTupleMutation(Rng& rng, int* next_id, MutableTupleRelation* store,
                         TupleShadow* shadow) {
  const int roll = static_cast<int>(rng.UniformInt(0, 9));
  std::string error;
  if (roll < 5) {  // insert, sometimes into a rule
    TLTuple t;
    t.id = (*next_id)++;
    t.score = rng.Uniform(0.0, 1000.0);
    t.prob = rng.Uniform(0.05, 1.0);
    const long long rule_key =
        roll < 2 ? rng.UniformInt(0, 7) : -1;
    if (rule_key >= 0 &&
        shadow->LiveRuleMass(rule_key) + t.prob > 1.0) {
      return false;  // would trip the mass gate; skip rather than assert
    }
    EXPECT_TRUE(store->Insert(t, rule_key, &error)) << error;
    shadow->Insert(t, rule_key);
    return true;
  }
  if (roll < 7) {  // delete a random live tuple
    const int id = shadow->RandomId(rng);
    if (id < 0) return false;
    EXPECT_TRUE(store->Delete(id, &error)) << error;
    shadow->Delete(id);
    return true;
  }
  // Update: new score/prob, and sometimes a cross-x-relation rule move.
  const int id = shadow->RandomId(rng);
  if (id < 0) return false;
  TLTuple t;
  t.id = id;
  t.score = rng.Uniform(0.0, 1000.0);
  t.prob = rng.Uniform(0.05, 0.4);
  const long long rule_key = roll == 7 ? rng.UniformInt(0, 7) : -1;
  if (rule_key >= 0 && shadow->LiveRuleMass(rule_key) + t.prob > 1.0) {
    return false;
  }
  EXPECT_TRUE(store->Update(t, rule_key, &error)) << error;
  shadow->Update(t, rule_key);
  return true;
}

class TupleEpochIdentityTest
    : public ::testing::TestWithParam<std::size_t> {};

// Randomized trace over every scenario family, checking identity after
// every publish. The delta-merge threshold parameter covers every merge
// schedule: 1 consolidates on each publish, 8 mixes consolidated and
// on-the-fly publishes, 1 << 20 never consolidates (pure base + delta).
TEST_P(TupleEpochIdentityTest, RandomizedTracesMatchFromScratchPrepare) {
  MutableRelationOptions options;
  options.delta_merge_threshold = GetParam();
  options.compact_min_dead = 8;

  const TupleRelation seeds[] = {
      testgen::CorrelatedTupleRelation(48, Correlation::kNegative, 11),
      testgen::ClusteredScoreTupleRelation(64, 5, 12),
      testgen::AdversarialRuleTupleRelation(40, 4, 13),
  };
  uint64_t seed = 101;
  for (const TupleRelation& rel : seeds) {
    MutableTupleRelation store(rel, options);
    TupleShadow shadow;
    shadow.Seed(rel);
    Rng rng(seed++);
    int next_id = 100000;
    ExpectEpochIdentity(store, shadow.EagerRelation(), 10, 1);
    for (int round = 0; round < 6; ++round) {
      const int ops = static_cast<int>(rng.UniformInt(1, 12));
      for (int i = 0; i < ops; ++i) {
        RandomTupleMutation(rng, &next_id, &store, &shadow);
      }
      store.Publish();
      ASSERT_EQ(store.live_size(), static_cast<long long>(shadow.size()));
      for (int threads : {1, 2, 8}) {
        ExpectEpochIdentity(store, shadow.EagerRelation(), 10, threads);
      }
    }
  }
}

TEST_P(TupleEpochIdentityTest, BatchApplyMatchesFromScratchPrepare) {
  MutableRelationOptions options;
  options.delta_merge_threshold = GetParam();
  MutableTupleRelation store(options);
  TupleShadow shadow;

  std::vector<TupleMutation> batch;
  for (int i = 0; i < 24; ++i) {
    TupleMutation op;
    op.op = TupleMutation::Op::kInsert;
    op.tuple.id = i;
    op.tuple.score = static_cast<double>((i * 37) % 50);  // tied scores
    op.tuple.prob = 0.10 + 0.03 * static_cast<double>(i % 8);
    op.rule_key = i % 3 == 0 ? i % 5 : -1;
    batch.push_back(op);
  }
  std::string error;
  ASSERT_TRUE(store.Apply(batch, &error)) << error;
  for (const TupleMutation& op : batch) {
    shadow.Insert(op.tuple, op.rule_key);
  }
  store.Publish();
  ExpectEpochIdentity(store, shadow.EagerRelation(), 8, 2);

  // A second batch mixing all three ops, including rule moves.
  batch.clear();
  TupleMutation op;
  op.op = TupleMutation::Op::kDelete;
  op.id = 3;
  batch.push_back(op);
  op.op = TupleMutation::Op::kUpdate;
  op.tuple.id = 6;
  op.tuple.score = 999.0;
  op.tuple.prob = 0.2;
  op.rule_key = 4;
  batch.push_back(op);
  op.op = TupleMutation::Op::kInsert;
  op.tuple.id = 100;
  op.tuple.score = 25.0;  // collides with existing scores
  op.tuple.prob = 0.5;
  op.rule_key = -1;
  batch.push_back(op);
  ASSERT_TRUE(store.Apply(batch, &error)) << error;
  shadow.Delete(3);
  shadow.Update(batch[1].tuple, batch[1].rule_key);
  shadow.Insert(batch[2].tuple, -1);
  store.Publish();
  for (int threads : {1, 2, 8}) {
    ExpectEpochIdentity(store, shadow.EagerRelation(), 8, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaMergeThresholds, TupleEpochIdentityTest,
                         ::testing::Values(std::size_t{1}, std::size_t{8},
                                           std::size_t{1} << 20));

// The planning sweep: same trace, checked under every synthetic topology
// and placement policy at 8 threads. Planning must never leak into a
// published epoch's answers.
TEST(TupleEpochIdentityTopologyTest, IdentityHoldsAcrossTopologies) {
  MutableRelationOptions options;
  options.delta_merge_threshold = 4;
  const TupleRelation rel =
      testgen::ClusteredScoreTupleRelation(96, 7, 21);
  MutableTupleRelation store(rel, options);
  TupleShadow shadow;
  shadow.Seed(rel);
  Rng rng(77);
  int next_id = 100000;
  for (int i = 0; i < 20; ++i) {
    RandomTupleMutation(rng, &next_id, &store, &shadow);
  }
  store.Publish();
  for (const char* spec : kSyntheticTopologies) {
    ScopedPlanningTopology scoped(spec);
    for (PlacementPolicy placement : kAllPlacements) {
      ExpectEpochIdentity(store, shadow.EagerRelation(), 10, 8, placement);
    }
  }
}

// Attribute-level identity: shadow is a plain arrival-order tuple list
// (updates move to the tail). Uses a small clustered relation so U-Topk's
// possible-worlds enumeration stays cheap while exercising colliding
// support values in the q(v) universe.
TEST(AttrEpochIdentityTest, RandomizedTracesMatchFromScratchPrepare) {
  for (std::size_t threshold : {std::size_t{1}, std::size_t{6}}) {
    MutableRelationOptions options;
    options.delta_merge_threshold = threshold;
    options.compact_min_dead = 4;
    const AttrRelation rel =
        testgen::ClusteredScoreAttrRelation(10, 3, 2, 31);
    MutableAttrRelation store(rel, options);
    std::vector<AttrTuple> shadow;
    for (int i = 0; i < rel.size(); ++i) shadow.push_back(rel.tuple(i));

    Rng rng(41);
    int next_id = 100000;
    for (int round = 0; round < 6; ++round) {
      const int ops = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < ops; ++i) {
        const int roll = static_cast<int>(rng.UniformInt(0, 5));
        std::string error;
        if (roll < 3 || shadow.empty()) {
          AttrTuple t;
          t.id = next_id++;
          const double v = rng.Uniform(0.0, 50.0);
          const double p = rng.Uniform(0.1, 0.9);
          // Two-point pdf with an occasional value shared across tuples
          // (integer grid) to exercise universe mass accumulation.
          t.pdf = {{static_cast<double>(static_cast<int>(v)), p},
                   {v + 100.0, 1.0 - p}};
          ASSERT_TRUE(store.Insert(t, &error)) << error;
          shadow.push_back(t);
        } else if (roll < 5) {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1));
          ASSERT_TRUE(store.Delete(shadow[pick].id, &error)) << error;
          shadow.erase(shadow.begin() + static_cast<long>(pick));
        } else {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1));
          AttrTuple t = shadow[pick];
          t.pdf = {{rng.Uniform(0.0, 50.0), 1.0}};
          ASSERT_TRUE(store.Update(t, &error)) << error;
          shadow.erase(shadow.begin() + static_cast<long>(pick));
          shadow.push_back(t);
        }
      }
      store.Publish();
      ASSERT_EQ(store.live_size(), static_cast<long long>(shadow.size()));
      for (int threads : {1, 2, 8}) {
        ExpectEpochIdentity(store, AttrRelation(shadow), 5, threads);
      }
    }
  }
}

TEST(AttrEpochIdentityTopologyTest, IdentityHoldsAcrossTopologies) {
  MutableRelationOptions options;
  options.delta_merge_threshold = 3;
  const AttrRelation rel =
      testgen::ClusteredScoreAttrRelation(60, 5, 3, 51);
  MutableAttrRelation store(rel, options);
  std::vector<AttrTuple> shadow;
  for (int i = 0; i < rel.size(); ++i) shadow.push_back(rel.tuple(i));
  std::string error;
  // A deterministic handful of mutations: delete a spread of ids, update
  // one pdf, insert two fresh tuples.
  for (int id : {3, 17, 29, 41}) {
    ASSERT_TRUE(store.Delete(id, &error)) << error;
    for (auto it = shadow.begin(); it != shadow.end(); ++it) {
      if (it->id == id) {
        shadow.erase(it);
        break;
      }
    }
  }
  AttrTuple updated = shadow.front();
  updated.pdf = {{12.5, 0.5}, {80.0, 0.5}};
  ASSERT_TRUE(store.Update(updated, &error)) << error;
  shadow.erase(shadow.begin());
  shadow.push_back(updated);
  for (int id : {9001, 9002}) {
    AttrTuple t;
    t.id = id;
    t.pdf = {{static_cast<double>(id % 97), 0.25}, {200.0 + id, 0.75}};
    ASSERT_TRUE(store.Insert(t, &error)) << error;
    shadow.push_back(t);
  }
  store.Publish();
  for (const char* spec : kSyntheticTopologies) {
    ScopedPlanningTopology scoped(spec);
    for (PlacementPolicy placement : kAllPlacements) {
      ExpectEpochIdentity(store, AttrRelation(shadow), 10, 8, placement);
    }
  }
}

}  // namespace
}  // namespace urank
