// Mutation soak: concurrent writers hammering a mutable store while
// reader threads continuously resolve snapshots and run queries. Run
// under TSan in CI (the epoch-soak job) to certify the copy-on-write
// snapshot protocol data-race-free; the assertions here are the
// single-epoch consistency invariants every reader must observe no
// matter how the writer interleaves:
//
//   * a resolved snapshot never changes underneath the reader — size,
//     ids and every answer stay self-consistent for as long as the
//     shared_ptr is held;
//   * epochs observed by a reader are non-decreasing;
//   * a query batch resolves one epoch for the whole batch.
//
// URANK_SOAK_ITERS scales the writer mutation budget: the PR-gate job
// keeps it small, the nightly job runs 10x under a multi-node synthetic
// topology (see .github/workflows/ci.yml).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "util/rng.h"

namespace urank {
namespace {

int SoakIters() {
  int iters = 300;
  if (const char* env = std::getenv("URANK_SOAK_ITERS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) iters = parsed;
  }
  return iters;
}

// Writers only ever delete ids they inserted themselves, so these base
// tuples stay live in every epoch: each snapshot holds at least kBase
// tuples and the readers' k (at most kBase) is always a valid top-k size
// (k <= N; QueryEngine answers a larger k with kInvalidK).
constexpr int kBase = 8;
constexpr int kBaseIdOffset = 100000000;  // disjoint from writer ids

TupleRelation BaseTupleRelation() {
  std::vector<TLTuple> tuples;
  for (int i = 0; i < kBase; ++i) {
    tuples.push_back({kBaseIdOffset + i, 10.0 * i + 5.0, 0.5});
  }
  return TupleRelation::Independent(std::move(tuples));
}

AttrRelation BaseAttrRelation() {
  std::vector<AttrTuple> tuples;
  for (int i = 0; i < kBase; ++i) {
    AttrTuple t;
    t.id = kBaseIdOffset + i;
    t.pdf = {{10.0 * i + 5.0, 0.5}, {10.0 * i + 205.0, 0.5}};
    tuples.push_back(std::move(t));
  }
  return AttrRelation(std::move(tuples));
}

TEST(EpochSoakTest, TupleWritersVersusReaders) {
  MutableRelationOptions options;
  options.delta_merge_threshold = 16;  // exercise consolidation in-flight
  options.compact_min_dead = 16;
  auto store =
      std::make_shared<MutableTupleRelation>(BaseTupleRelation(), options);
  auto engine = std::make_shared<QueryEngine>(store);

  const int iters = SoakIters();
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const TupleEpochSnapshot snap = store->Snapshot();
      if (snap.epoch < last_epoch) {
        ++failures;
        return;
      }
      last_epoch = snap.epoch;
      // The snapshot is immutable: reading it twice must agree even while
      // the writer publishes new epochs.
      const int size_a = snap.prepared->size();
      QueryRequest request;
      request.options.semantics = rng.UniformInt(0, 1) == 0
                                      ? RankingSemantics::kExpectedRank
                                      : RankingSemantics::kGlobalTopk;
      request.options.k = 5;
      QueryEngine pinned(snap.prepared);
      const QueryResult result = pinned.Run(request);
      if (!result.status.ok() ||
          result.answer.ids.size() >
              static_cast<size_t>(snap.prepared->size()) ||
          snap.prepared->size() != size_a) {
        ++failures;
        return;
      }
      // The shared engine resolves its own (possibly newer) snapshot;
      // it must never fail or observe an epoch below the one we hold.
      const QueryResult live = engine->Run(request);
      if (!live.status.ok() || live.stats.epoch < snap.epoch) {
        ++failures;
        return;
      }
    }
  };

  auto writer = [&](uint64_t seed, int id_base) {
    Rng rng(seed);
    std::vector<int> live;
    for (int i = 0; i < iters; ++i) {
      const int roll = static_cast<int>(rng.UniformInt(0, 9));
      std::string error;
      if (roll < 6 || live.empty()) {
        TLTuple t;
        t.id = id_base + i;
        t.score = rng.Uniform(0.0, 1000.0);
        t.prob = rng.Uniform(0.05, 1.0);
        // Each writer owns a disjoint rule-key range, so the mass gate
        // never races another writer's additions into a shared rule.
        const long long rule_key =
            roll < 2 ? id_base + static_cast<long long>(rng.UniformInt(0, 3))
                     : -1;
        if (store->Insert(t, rule_key, &error)) live.push_back(t.id);
      } else {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        if (!store->Delete(live[pick], &error)) {
          ++failures;
          return;
        }
        live.erase(live.begin() + static_cast<long>(pick));
      }
      if (i % 7 == 0) store->Publish();
    }
    store->Publish();
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, 1u, 1000000);
  threads.emplace_back(writer, 2u, 2000000);
  threads.emplace_back(reader, 11u);
  threads.emplace_back(reader, 12u);
  threads.emplace_back(reader, 13u);
  for (size_t i = 0; i < 2; ++i) threads[i].join();
  done.store(true, std::memory_order_release);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(failures.load(), 0);

  // Final state must still publish a clean epoch and answer queries.
  const TupleEpochSnapshot final_snap = store->Publish();
  EXPECT_EQ(final_snap.prepared->size(), store->live_size());
}

TEST(EpochSoakTest, BatchResolvesOneEpochUnderConcurrentPublishes) {
  auto store = std::make_shared<MutableTupleRelation>();
  auto engine = std::make_shared<QueryEngine>(store);
  std::string error;
  for (int i = 0; i < 32; ++i) {
    TLTuple t;
    t.id = i;
    t.score = static_cast<double>(i);
    t.prob = 0.5;
    ASSERT_TRUE(store->Insert(t, -1, &error)) << error;
  }
  store->Publish();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(5);
    int next_id = 1000;
    while (!done.load(std::memory_order_acquire)) {
      TLTuple t;
      t.id = next_id++;
      t.score = rng.Uniform(0.0, 100.0);
      t.prob = 0.5;
      store->Insert(t, -1, nullptr);
      store->Publish();
    }
  });

  const int iters = std::min(SoakIters(), 100);
  for (int i = 0; i < iters; ++i) {
    std::vector<QueryRequest> requests(4);
    for (auto& r : requests) r.options.k = 3;
    const std::vector<QueryResult> results = engine->RunBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (const QueryResult& result : results) {
      ASSERT_TRUE(result.status.ok()) << result.status.message;
      // One resolve per batch: every item reports the same epoch.
      EXPECT_EQ(result.stats.epoch, results[0].stats.epoch);
    }
  }
  done.store(true, std::memory_order_release);
  writer.join();
}

TEST(EpochSoakTest, AttrWritersVersusReaders) {
  auto store = std::make_shared<MutableAttrRelation>(BaseAttrRelation());
  auto engine = std::make_shared<QueryEngine>(store);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    Rng rng(9);
    std::vector<int> live;
    const int iters = SoakIters();
    for (int i = 0; i < iters; ++i) {
      std::string error;
      if (rng.UniformInt(0, 2) != 0 || live.empty()) {
        AttrTuple t;
        t.id = i;
        const double v = rng.Uniform(0.0, 100.0);
        const double p = rng.Uniform(0.2, 0.8);
        t.pdf = {{v, p}, {v + 200.0, 1.0 - p}};
        if (store->Insert(t, &error)) live.push_back(t.id);
      } else {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        if (!store->Delete(live[pick], &error)) {
          ++failures;
          break;
        }
        live.erase(live.begin() + static_cast<long>(pick));
      }
      if (i % 5 == 0) store->Publish();
    }
    store->Publish();
  });

  std::thread reader([&] {
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      QueryRequest request;
      request.options.semantics = RankingSemantics::kExpectedRank;
      request.options.k = 4;
      const QueryResult result = engine->Run(request);
      if (!result.status.ok() || result.stats.epoch < last_epoch) {
        ++failures;
        return;
      }
      last_epoch = result.stats.epoch;
    }
  });

  writer.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace urank
