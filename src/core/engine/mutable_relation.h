// Mutable relations: incremental ingestion over the prepared-state query
// surface, with copy-on-write epoch snapshots.
//
// MutableRelation<Traits> is one store written once for both models and
// instantiated as MutableTupleRelation and MutableAttrRelation. It owns
// the *logical contents* of one uncertain relation — tuples in arrival
// order, each tagged alive/dead (tuple-level entries also carry the
// caller-chosen exclusion-rule key) — plus the incremental preparation
// state needed to publish a PreparedRelation without re-running the
// O(N log N) from-scratch prepare:
//
//   * a *base* sorted run over the already-consolidated prefix of the
//     entry log (rank order for tuple-level, expected-score order for
//     attribute-level; the attribute model also keeps the sorted
//     (value, mass) slice of the q(v) universe),
//   * a *delta* of entries appended since the last consolidation, sorted
//     at publish time, and
//   * tombstones: Delete marks an entry dead; dead entries are filtered
//     out of the merged order at publish time and physically compacted
//     once they outnumber the live ones.
//
// Publish() merges base + delta and derives the seed through the one seed
// finish every producer of prepared state shares
// (core/engine/prepared_builder.h), hands it to the Prepared*Relation seed
// constructor, and atomically swaps the new snapshot in under a fresh
// epoch number. Readers call Snapshot() and keep a
// shared_ptr<const Prepared*Relation>: in-flight queries keep reading the
// epoch they resolved, unaffected by concurrent writers (copy-on-write —
// published prepared state is never modified).
//
// What differs per model lives in two small traits
// (engine_internal::TupleStoreModel / AttrStoreModel): the entry payload
// and its insert-time contract, the order key, the attribute-level value
// run, and the seed assembly. Everything else — the entry log, the id
// index, Insert/Delete/Update, the Apply undo journal, consolidation and
// compaction, the merge, the snapshot swap and the counters — is shared.
//
// Bit-identity contract (the property tests/core/epoch_identity_test.cc
// enforces): every published epoch is bit-identical — EXPECT_EQ on every
// double of every semantics' answer, for any thread count × topology ×
// placement — to eagerly preparing the same logical contents, defined as:
//
//   * live entries in arrival order (an Update re-inserts at the tail:
//     it is a Delete plus an Insert, and its tie-break index moves);
//   * exclusion rules grouped by key, numbered by first live appearance
//     in arrival order, members in arrival order. Negative keys mean
//     independent (singleton rules supplied by the TupleRelation
//     constructor).
//
// The argument is the seed finish's (prepared_builder.h); tombstone
// filtering and arrival-order compaction are both monotone in the entry
// index, so they preserve the merged orders.
//
// x-relations: rule keys are first-class and fully general — a rule may
// gain and lose members across any number of epochs, and an Update may
// move a tuple between rules (cross-x-relation rule edit). Mutations are
// gated by the same model contract TupleRelation::Validate enforces
// (per-rule live probability mass <= 1 + tolerance, summed in arrival
// order so the comparison is bit-for-bit the one Validate performs), so
// a Publish can never abort in the model constructor.
//
// Thread-safety: any number of reader threads may call Snapshot()/epoch()
// concurrently with one another and with writers. Mutators and Publish
// are serialized on an internal writer mutex — concurrent writers are
// safe but see arrival order chosen by lock order. Batch Apply is
// all-or-nothing: on the first failing op the whole batch is rolled back
// and the logical contents are untouched.

#ifndef URANK_CORE_ENGINE_MUTABLE_RELATION_H_
#define URANK_CORE_ENGINE_MUTABLE_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace urank {

// Maintenance knobs. Defaults suit serving workloads; the epoch-identity
// suite sweeps delta_merge_threshold down to 1 (consolidate every
// publish) to cover every merge schedule.
struct MutableRelationOptions {
  // Pending delta entries (live, since the last consolidation) at or above
  // which Publish folds the delta into the base run instead of re-merging
  // it on every publish.
  std::size_t delta_merge_threshold = 1024;
  // Dead entries are physically compacted out of the log when they
  // outnumber the live entries AND exceed this floor (avoids churning
  // tiny relations).
  std::size_t compact_min_dead = 64;
};

// One published epoch: the immutable prepared state plus its number.
// Epoch numbers are per-store, monotonically increasing, starting at 1
// for the snapshot published by the constructor.
template <typename Prepared>
struct EpochSnapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const Prepared> prepared;
};

using TupleEpochSnapshot = EpochSnapshot<PreparedTupleRelation>;
using AttrEpochSnapshot = EpochSnapshot<PreparedAttrRelation>;

// The kind of one mutation, shared by both stores and the wire protocol.
enum class MutationOp { kInsert, kDelete, kUpdate };

// One mutation against a tuple-level store, for batch Apply.
struct TupleMutation {
  using Op = MutationOp;
  Op op = Op::kInsert;
  // kInsert/kUpdate payload (tuple.id names the target for kUpdate).
  TLTuple tuple;
  long long rule_key = -1;
  // kDelete target.
  int id = 0;
};

// One mutation against an attribute-level store.
struct AttrMutation {
  using Op = MutationOp;
  Op op = Op::kInsert;
  AttrTuple tuple;  // kInsert/kUpdate payload
  int id = 0;       // kDelete target
};

namespace engine_internal {

// One slot of a store's entry log.
template <typename Entry>
struct LogSlot {
  Entry entry;
  bool alive = true;
};

// The model traits of MutableRelation: everything a store does per model.
// Each provides the entry payload and its insert-time contract (Admit),
// the order key, the attribute-level value run (MergeValueRun) and the
// seed assembly (Assemble), plus the hooks that keep model-side indexes in
// step with the log (Appended / Truncated / Compacted).

// Tuple level (x-relation model).
class TupleStoreModel {
 public:
  using Tuple = TLTuple;
  using Relation = TupleRelation;
  using Prepared = PreparedTupleRelation;
  using Mutation = TupleMutation;
  struct Entry {
    TLTuple tuple;
    long long rule_key = -1;
  };
  using Log = std::vector<LogSlot<Entry>>;
  // The tuple level has no value run.
  struct ValueRun {};
  static constexpr bool kRuleKeyed = true;

  static Entry MakeEntry(const TLTuple& tuple, long long rule_key) {
    return {tuple, rule_key};
  }
  static Entry FromMutation(const TupleMutation& m) {
    return MakeEntry(m.tuple, m.rule_key);
  }
  // Keys each tuple by its rule index: preserves the relation's rules
  // (implicit singletons included), members canonicalized into index order.
  static Entry FromRelation(const TupleRelation& rel, int i) {
    return {rel.tuple(i), rel.rule_of(i)};
  }
  static double Key(const Entry& e) { return e.tuple.score; }

  // Probability in (0,1], finite score, and the rule's live mass (summed
  // in arrival order, bit for bit TupleRelation::Validate's sum) staying
  // <= 1 + tolerance.
  bool Admit(const Log& log, Entry* e, std::string* error) const;
  void Appended(const Entry& e, std::size_t idx);
  void Truncated(const Log& log, std::size_t old_size);
  void Compacted(const std::vector<std::size_t>& remap);
  ValueRun MergeValueRun(const Log&, std::size_t, bool) { return {}; }
  std::shared_ptr<const PreparedTupleRelation> Assemble(
      const Log& log, const std::vector<std::size_t>& live,
      std::vector<int> order, ValueRun values) const;

 private:
  double LiveRuleMass(const Log& log, long long rule_key) const;

  // rule key (>= 0) -> entry indices in arrival order (dead ones retained
  // until compaction; LiveRuleMass skips them).
  std::unordered_map<long long, std::vector<std::size_t>> rule_members_;
};

// Attribute level.
class AttrStoreModel {
 public:
  using Tuple = AttrTuple;
  using Relation = AttrRelation;
  using Prepared = PreparedAttrRelation;
  using Mutation = AttrMutation;
  struct Entry {
    AttrTuple tuple;
    double expected_score = 0.0;
    internal::SortedPdf sorted_pdf;  // deterministic function of the pdf
  };
  using Log = std::vector<LogSlot<Entry>>;
  // The merged run's q(v) universe.
  using ValueRun = internal::ValueUniverse;
  static constexpr bool kRuleKeyed = false;

  // The derived fields are filled in by Admit, once the pdf is known to
  // be valid.
  static Entry MakeEntry(const AttrTuple& tuple) {
    Entry e;
    e.tuple = tuple;
    return e;
  }
  static Entry FromMutation(const AttrMutation& m) {
    return MakeEntry(m.tuple);
  }
  // The relation's constructor already validated every tuple.
  static Entry FromRelation(const AttrRelation& rel, int i);
  static double Key(const Entry& e) { return e.expected_score; }

  // AttrRelation::Validate's per-tuple rules (non-empty pdf, probabilities
  // in (0,1] summing to 1, finite distinct values).
  bool Admit(const Log& log, Entry* e, std::string* error) const;
  void Appended(const Entry&, std::size_t) {}
  void Truncated(const Log&, std::size_t) {}
  void Compacted(const std::vector<std::size_t>& remap);
  // Merges the consolidated value run with the delta's pairs, filtering
  // tombstoned owners, into the universe; keeps the merged run as the new
  // base when consolidating.
  ValueRun MergeValueRun(const Log& log, std::size_t delta_start,
                         bool consolidate);
  std::shared_ptr<const PreparedAttrRelation> Assemble(
      const Log& log, const std::vector<std::size_t>& live,
      std::vector<int> order, ValueRun values) const;

 private:
  // One support point of the q(v) universe with its owning entry, so
  // tombstoned mass can be filtered out of the base value run.
  struct ValueItem {
    double value = 0.0;
    double prob = 0.0;
    std::size_t owner = 0;

    friend bool operator<(const ValueItem& a, const ValueItem& b) {
      if (a.value != b.value) return a.value < b.value;
      if (a.prob != b.prob) return a.prob < b.prob;
      return a.owner < b.owner;
    }
  };

  // Fills the derived fields (expected score, sorted pdf).
  static void Derive(Entry* e);

  // (value, mass, owner) ascending — the consolidated prefix's slice of
  // the q(v) universe before collapsing.
  std::vector<ValueItem> base_value_run_;
};

}  // namespace engine_internal

// A mutable store over one model (see the file comment). Instantiated for
// the two models as MutableTupleRelation and MutableAttrRelation.
template <typename Traits>
class MutableRelation {
 public:
  using Tuple = typename Traits::Tuple;
  using Relation = typename Traits::Relation;
  using Prepared = typename Traits::Prepared;
  using Mutation = typename Traits::Mutation;

  // Starts empty; publishes epoch 1 (an empty relation) immediately, so
  // Snapshot() never returns a null prepared pointer.
  explicit MutableRelation(MutableRelationOptions options = {});

  // Seeds the logical contents from an existing (already validated)
  // relation — tuples in index order, tuple-level ones keyed by their rule
  // index — then publishes epoch 1.
  explicit MutableRelation(const Relation& rel,
                           MutableRelationOptions options = {});

  MutableRelation(const MutableRelation&) = delete;
  MutableRelation& operator=(const MutableRelation&) = delete;

  // Mutators. Return false (logical contents untouched) with a
  // description in *error (when non-null) on a contract violation:
  // duplicate live id, unknown delete/update target, or a payload the
  // model rejects (tuple level: probability outside (0,1], non-finite
  // score, a rule whose live mass would exceed 1 + tolerance; attribute
  // level: AttrRelation::Validate's per-tuple rules). Mutations become
  // visible to readers only at Publish. Update is Delete + re-insert at
  // the tail (the tuple's tie-break index moves to the end of the arrival
  // order); at tuple level it may change the rule key.
  bool Insert(const Tuple& tuple, long long rule_key, std::string* error)
    requires Traits::kRuleKeyed
  {
    return InsertEntry(Traits::MakeEntry(tuple, rule_key), error);
  }
  bool Update(const Tuple& tuple, long long rule_key, std::string* error)
    requires Traits::kRuleKeyed
  {
    return UpdateEntry(Traits::MakeEntry(tuple, rule_key), error);
  }
  bool Insert(const Tuple& tuple, std::string* error)
    requires(!Traits::kRuleKeyed)
  {
    return InsertEntry(Traits::MakeEntry(tuple), error);
  }
  bool Update(const Tuple& tuple, std::string* error)
    requires(!Traits::kRuleKeyed)
  {
    return UpdateEntry(Traits::MakeEntry(tuple), error);
  }
  bool Delete(int id, std::string* error);

  // All-or-nothing batch: applies ops in order; on the first failure the
  // whole batch is rolled back and false is returned with the failing
  // op's index and reason in *error.
  bool Apply(const std::vector<Mutation>& ops, std::string* error);

  // Builds and atomically publishes a new epoch reflecting every mutation
  // so far. Idempotent: with no pending mutations the current snapshot is
  // returned unchanged (no epoch bump).
  EpochSnapshot<Prepared> Publish();

  // The latest published snapshot. Never null.
  EpochSnapshot<Prepared> Snapshot() const;

  std::uint64_t epoch() const;

  // Bumps the epoch number (keeping the current prepared state) so the
  // next/current epoch is >= `epoch`. Used by the serving registry when a
  // reload replaces a store: cached results keyed by the old store's
  // epochs must not alias the new store's.
  void EnsureEpochAtLeast(std::uint64_t epoch);

  // Live tuples / mutations not yet published.
  long long live_size() const;
  bool dirty() const;

  // Maintenance counters (lifetime totals, for tests and gauges).
  std::uint64_t delta_merges() const;
  std::uint64_t compactions() const;

 private:
  using Entry = typename Traits::Entry;

  bool InsertEntry(Entry entry, std::string* error);
  bool UpdateEntry(Entry entry, std::string* error);
  bool InsertLocked(Entry entry, std::string* error);
  void AppendLocked(Entry entry);
  // Tombstones the live entry `id`; returns its index, or npos (with
  // *error set) when no live entry has that id.
  std::size_t KillLocked(int id, std::string* error);
  void CompactLocked();
  void PublishLocked();

  const MutableRelationOptions options_;

  mutable std::mutex writer_mu_;
  Traits model_;
  typename Traits::Log entries_;  // arrival order; tombstoned, not reordered
  std::unordered_map<int, std::size_t> live_by_id_;
  std::size_t live_count_ = 0;
  // entries_[0, delta_start_) are covered by base_run_.
  std::size_t delta_start_ = 0;
  // Entry indices sorted KeyDescIndexAsc (score or expected score); only
  // entries alive at consolidation time — later tombstones are filtered
  // at publish.
  std::vector<std::size_t> base_run_;
  bool dirty_ = true;
  std::uint64_t delta_merges_ = 0;
  std::uint64_t compactions_ = 0;

  mutable std::mutex snapshot_mu_;
  std::uint64_t epoch_ = 0;
  std::shared_ptr<const Prepared> snapshot_;
};

extern template class MutableRelation<engine_internal::TupleStoreModel>;
extern template class MutableRelation<engine_internal::AttrStoreModel>;

// Tuple-level mutable store (x-relation model).
using MutableTupleRelation = MutableRelation<engine_internal::TupleStoreModel>;
// Attribute-level mutable store.
using MutableAttrRelation = MutableRelation<engine_internal::AttrStoreModel>;

}  // namespace urank

#endif  // URANK_CORE_ENGINE_MUTABLE_RELATION_H_
