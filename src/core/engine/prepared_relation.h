// Prepared relations: the shared per-relation state every ranking
// semantics starts from, computed once and reused across queries.
//
// The paper's algorithms (A-ERank/T-ERank, the quantile DPs, the top-k
// probability semantics) all begin with the same preprocessing — a
// score-sorted permutation, prefix sums of existence probabilities, the
// q(v) = Pr[score > v] suffix masses, the exclusion-rule index — yet the
// one-shot entry points rebuild it per call. A PreparedRelation owns that
// state plus a thread-safe memo cache of the per-tuple statistic vectors
// (expected ranks, quantile ranks, top-k probabilities, ...) the
// individual semantics are thin selections over, so a second query against
// the same relation — even with a different k — is served from the cache.
//
// Thread-safety: after construction a prepared relation is logically
// immutable. Statistic lookups are internally synchronized (one
// computation per key; concurrent requests for the same key block on the
// first caller's result), so any number of threads may query one prepared
// relation concurrently. This is the property QueryEngine::RunBatch is
// built on.
//
// Equivalence: every cached statistic is produced by exactly the same code
// path, in the same arithmetic order, as the one-shot free functions, so
// prepared results are bit-identical to facade results — not merely close.

#ifndef URANK_CORE_ENGINE_PREPARED_RELATION_H_
#define URANK_CORE_ENGINE_PREPARED_RELATION_H_

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/internal/shard_plan.h"
#include "core/internal/sorted_pdf.h"
#include "core/internal/value_universe.h"
#include "core/rank_distribution_tuple.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "model/types.h"
#include "util/parallel.h"

namespace urank {

// Identifies one memoized per-tuple statistic vector. Parameters that do
// not apply to a kind (e.g. `k` for expected ranks, `phi` for anything but
// quantiles) are left at their zero defaults so unrelated queries share an
// entry.
struct StatKey {
  enum class Kind {
    kExpectedRank,     // TupleExpectedRanks / AttrExpectedRanks (k-free)
    kQuantileRank,     // quantile ranks at `phi` (k-free)
    kTopKProbability,  // Pr[in top-k] at `k`
    kUKRanksWinners,   // U-kRanks winner ids per rank, at `k`
    kExpectedScore,    // expected scores (parameter-free)
  };

  Kind kind = Kind::kExpectedRank;
  int k = 0;
  double phi = 0.0;
  TiePolicy ties = TiePolicy::kBreakByIndex;

  friend bool operator<(const StatKey& a, const StatKey& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.k != b.k) return a.k < b.k;
    if (a.phi != b.phi) return a.phi < b.phi;
    return a.ties < b.ties;
  }
};

namespace engine_internal {

// Thread-safe single-flight memo table. The first caller of a key runs the
// computation outside the lock; concurrent callers of the same key wait on
// a shared future instead of recomputing.
template <typename Key, typename Value>
class MemoTable {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  ValuePtr GetOrCompute(const Key& key,
                        const std::function<Value()>& compute) const {
    std::promise<ValuePtr> promise;
    std::shared_future<ValuePtr> future;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto [it, inserted] = entries_.try_emplace(key);
      if (inserted) {
        it->second = promise.get_future().share();
        owner = true;
      }
      future = it->second;
    }
    if (owner) {
      misses_.fetch_add(1, std::memory_order_acq_rel);
      promise.set_value(std::make_shared<const Value>(compute()));
    } else {
      hits_.fetch_add(1, std::memory_order_acq_rel);
    }
    return future.get();
  }

  // True once the key has been requested (its value may still be in
  // flight). Used to report cache reuse in query statistics.
  bool Contains(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.count(key) > 0;
  }

  long long hits() const { return hits_.load(std::memory_order_acquire); }
  long long misses() const {
    return misses_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  mutable std::map<Key, std::shared_future<ValuePtr>> entries_;
  mutable std::atomic<long long> hits_{0};
  mutable std::atomic<long long> misses_{0};
};

}  // namespace engine_internal

// Precomputed preparation state, the input of the seed constructors. Every
// producer derives it through the one seed finish in
// core/engine/prepared_builder.h: the eager constructors below (one sort
// over the relation), the blocked builders (per-block runs merged at seal)
// and the mutable store's Publish (base + delta runs merged, tombstones
// filtered). The seed constructors adopt it without recomputing; every
// field holds the same values, bit for bit, whichever producer made it.
struct AttrPreparedSeed {
  std::vector<double> expected_scores;          // E[X_i] by position
  std::vector<int> escore_order;                // (E desc, index asc)
  internal::ValueUniverse universe;             // q(v) suffix masses
  std::vector<internal::SortedPdf> sorted_pdfs;  // per-tuple sorted pdfs
};

struct TuplePreparedSeed {
  std::vector<int> rank_order;      // (score desc, index asc)
  std::vector<double> prefix_prob;  // size N+1, plain sequential sums
  std::vector<double> rank_probs;   // prob by sweep position, size N
};

// Shared state for an attribute-level relation. Owns a copy of the
// relation; eagerly builds the expected-score order, the sorted value
// universe (A-ERank's q(v) suffix masses), and the id -> position index.
// Non-copyable: hand out shared_ptr<const PreparedAttrRelation> instead.
class PreparedAttrRelation {
 public:
  // Eager preparation: derives the seed from `rel` with one sort
  // (engine_internal::EagerAttrSeed) and delegates to the seed constructor.
  explicit PreparedAttrRelation(AttrRelation rel);

  // Adopts a seed (see AttrPreparedSeed); the one constructor that derives
  // the remaining state (id index, shard plan).
  PreparedAttrRelation(AttrRelation rel, AttrPreparedSeed seed);

  PreparedAttrRelation(const PreparedAttrRelation&) = delete;
  PreparedAttrRelation& operator=(const PreparedAttrRelation&) = delete;

  const AttrRelation& relation() const { return rel_; }
  int size() const { return rel_.size(); }
  long long NumWorlds() const { return rel_.NumWorlds(); }

  // Tuple ids by position, and positions sorted by expected score
  // descending (ties by index) — the stream order of the prune variants.
  const std::vector<int>& ids() const { return ids_; }
  const std::vector<int>& escore_order() const { return escore_order_; }

  // expected_scores()[i] = E[X_i].
  const std::vector<double>& expected_scores() const {
    return expected_scores_;
  }

  // The sorted value universe with q(v) suffix masses (eq. 4).
  const internal::ValueUniverse& universe() const { return universe_; }

  // Per-tuple sorted pdfs with suffix sums, built once at preparation time
  // and shared by every attribute-level DP over this relation.
  const std::vector<internal::SortedPdf>& sorted_pdfs() const {
    return sorted_pdfs_;
  }

  // Score-range shard plan for the shard-parallel A-ERank sweep: contiguous
  // tuple ranges (balanced by pdf-entry count) with per-entry tie-mass
  // snapshots, first-touched on each shard's home node at preparation time.
  // The grid is a pure function of the relation — never of the topology.
  const internal::AttrShardPlan& shard_plan() const { return shard_plan_; }

  // Position of the tuple with external id `id`, or -1 if absent. O(1)
  // expected; ids may be arbitrary ints (sparse, negative, huge).
  int PositionOfId(int id) const;

  // The full N x N rank-distribution matrix (AttrRankDistributions),
  // computed on first use per tie policy and shared by every matrix-backed
  // semantics (quantile ranks, U-kRanks, top-k probabilities). A cache
  // miss is computed with `par` intra-query parallelism (results are
  // bit-identical regardless) and Merge()s what the kernel did into
  // `report` when non-null; a cache hit leaves `report` untouched.
  std::shared_ptr<const std::vector<std::vector<double>>> RankDistributions(
      TiePolicy ties, const ParallelismOptions& par = {},
      KernelReport* report = nullptr) const;

  // Memoized per-tuple statistic vector: returns the cached value for
  // `key`, running `compute` (once, under single-flight discipline) on the
  // first request.
  std::shared_ptr<const std::vector<double>> CachedStat(
      const StatKey& key,
      const std::function<std::vector<double>()>& compute) const;

  // True when the statistic for `key` has already been requested.
  bool HasCachedStat(const StatKey& key) const;

  long long cache_hits() const {
    return stats_.hits() + dists_.hits();
  }
  long long cache_misses() const {
    return stats_.misses() + dists_.misses();
  }

 private:
  explicit PreparedAttrRelation(
      std::pair<AttrRelation, AttrPreparedSeed> seeded);

  AttrRelation rel_;
  std::vector<int> ids_;
  std::vector<double> expected_scores_;
  std::vector<int> escore_order_;
  internal::ValueUniverse universe_;
  std::vector<internal::SortedPdf> sorted_pdfs_;
  internal::AttrShardPlan shard_plan_;
  std::unordered_map<int, int> position_of_id_;
  engine_internal::MemoTable<StatKey, std::vector<double>> stats_;
  // Keyed by the tie policy.
  engine_internal::MemoTable<int, std::vector<std::vector<double>>> dists_;
};

// Shared state for a tuple-level relation. Owns a copy of the relation
// (which itself carries the rule-group index and E[|W|]); eagerly builds
// the rank order (score descending, index ascending — the sweep order of
// T-ERank and every positional DP), its prefix probability sums, and the
// id -> position index. Non-copyable.
class PreparedTupleRelation {
 public:
  // Eager preparation: derives the seed from `rel` with one sort
  // (engine_internal::EagerTupleSeed) and delegates to the seed constructor.
  explicit PreparedTupleRelation(TupleRelation rel);

  // Adopts a seed (see TuplePreparedSeed); the one constructor that
  // derives the remaining state (id index, shard plan).
  PreparedTupleRelation(TupleRelation rel, TuplePreparedSeed seed);

  PreparedTupleRelation(const PreparedTupleRelation&) = delete;
  PreparedTupleRelation& operator=(const PreparedTupleRelation&) = delete;

  const TupleRelation& relation() const { return rel_; }
  int size() const { return rel_.size(); }
  double expected_world_size() const { return rel_.ExpectedWorldSize(); }

  // Tuple ids by position.
  const std::vector<int>& ids() const { return ids_; }

  // Positions sorted by (score desc, index asc): the order in which
  // "already swept" means "ranked above".
  const std::vector<int>& rank_order() const { return rank_order_; }

  // prefix_prob()[j] = sum of existence probabilities of the first j
  // tuples in rank order (size N+1); prefix_prob()[N] = E[|W|].
  const std::vector<double>& prefix_prob() const { return prefix_prob_; }

  // Position of the tuple with external id `id`, or -1 if absent. O(1)
  // expected; ids may be arbitrary ints (sparse, negative, huge).
  int PositionOfId(int id) const;

  // Score-range shard plan for the shard-parallel T-ERank sweep:
  // contiguous run-aligned slices of the rank order with their exact
  // serial entry state, first-touched on each shard's home node at
  // preparation time. The grid is a pure function of the relation.
  const internal::TupleShardPlan& shard_plan() const { return shard_plan_; }

  // Memoized chunk-entry table for the deterministic tuple sweep grid
  // (BuildTupleSweepEntryTable over this relation's rank order), one per
  // tie policy: parallel DP sweeps start each chunk from the precomputed
  // per-rule prefix state instead of replaying it.
  std::shared_ptr<const TupleSweepEntryTable> SweepEntries(
      TiePolicy ties) const;

  // Memoized per-tuple statistic vector (see PreparedAttrRelation).
  std::shared_ptr<const std::vector<double>> CachedStat(
      const StatKey& key,
      const std::function<std::vector<double>()>& compute) const;

  // True when the statistic for `key` has already been requested.
  bool HasCachedStat(const StatKey& key) const;

  long long cache_hits() const { return stats_.hits(); }
  long long cache_misses() const { return stats_.misses(); }

 private:
  explicit PreparedTupleRelation(
      std::pair<TupleRelation, TuplePreparedSeed> seeded);

  TupleRelation rel_;
  std::vector<int> ids_;
  std::vector<int> rank_order_;
  std::vector<double> prefix_prob_;
  internal::TupleShardPlan shard_plan_;
  std::unordered_map<int, int> position_of_id_;
  engine_internal::MemoTable<StatKey, std::vector<double>> stats_;
  // Keyed by the tie policy.
  engine_internal::MemoTable<int, TupleSweepEntryTable> sweep_entries_;
};

}  // namespace urank

#endif  // URANK_CORE_ENGINE_PREPARED_RELATION_H_
