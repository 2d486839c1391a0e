#include "core/engine/mutable_relation.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "core/engine/prepared_builder.h"
#include "util/check.h"
#include "util/metrics.h"

namespace urank {
namespace {

// Writer-side metrics (docs/OBSERVABILITY.md). The epoch gauge is a
// process-wide high-water mark across all stores.
struct MutationMetrics {
  metrics::Counter& mutations;
  metrics::Counter& publishes;
  metrics::Counter& delta_merges;
  metrics::Counter& compactions;
  metrics::Gauge& epoch;

  static const MutationMetrics& Get() {
    metrics::Registry& r = metrics::Registry::Global();
    static const MutationMetrics m{
        r.counter("urank_engine_mutations_total"),
        r.counter("urank_engine_epoch_publish_total"),
        r.counter("urank_engine_delta_merge_total"),
        r.counter("urank_engine_compaction_total"),
        r.gauge("urank_engine_epoch_count")};
    return m;
  }
};

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

// Mirrors the model validators' round-off allowance (the same constant
// kProbSumTolerance both model .cc files define), so a mutation the store
// accepts can never be rejected by the TupleRelation constructor at
// publish time.
constexpr double kTolerance = internal::kContractTolerance;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

}  // namespace

namespace engine_internal {

// ---------------------------------------------------------------------------
// TupleStoreModel

double TupleStoreModel::LiveRuleMass(const Log& log,
                                     long long rule_key) const {
  const auto it = rule_members_.find(rule_key);
  if (it == rule_members_.end()) return 0.0;
  // Left-to-right over live members in arrival order: the exact additions
  // TupleRelation::Validate performs over the published rule vector.
  double mass = 0.0;
  for (std::size_t idx : it->second) {
    if (log[idx].alive) mass += log[idx].entry.tuple.prob;
  }
  return mass;
}

bool TupleStoreModel::Admit(const Log& log, Entry* e,
                            std::string* error) const {
  const TLTuple& tuple = e->tuple;
  if (!(tuple.prob > 0.0) || tuple.prob > 1.0 + kTolerance) {
    SetError(error, "tuple " + std::to_string(tuple.id) +
                        " has a probability outside (0,1]");
    return false;
  }
  if (!std::isfinite(tuple.score)) {
    SetError(error, "tuple " + std::to_string(tuple.id) +
                        " has a non-finite score");
    return false;
  }
  if (e->rule_key >= 0) {
    const double mass = LiveRuleMass(log, e->rule_key) + tuple.prob;
    if (mass > 1.0 + kTolerance) {
      SetError(error, "rule " + std::to_string(e->rule_key) +
                          " probabilities would sum to " +
                          std::to_string(mass) + " > 1");
      return false;
    }
  }
  return true;
}

void TupleStoreModel::Appended(const Entry& e, std::size_t idx) {
  if (e.rule_key >= 0) rule_members_[e.rule_key].push_back(idx);
}

void TupleStoreModel::Truncated(const Log& log, std::size_t old_size) {
  for (std::size_t idx = old_size; idx < log.size(); ++idx) {
    const long long key = log[idx].entry.rule_key;
    if (key < 0) continue;
    std::vector<std::size_t>& members = rule_members_[key];
    while (!members.empty() && members.back() >= old_size) {
      members.pop_back();
    }
  }
}

void TupleStoreModel::Compacted(const std::vector<std::size_t>& remap) {
  for (auto it = rule_members_.begin(); it != rule_members_.end();) {
    std::vector<std::size_t> kept;
    for (std::size_t idx : it->second) {
      if (remap[idx] != kNpos) kept.push_back(remap[idx]);
    }
    if (kept.empty()) {
      it = rule_members_.erase(it);
    } else {
      it->second = std::move(kept);
      ++it;
    }
  }
}

std::shared_ptr<const PreparedTupleRelation> TupleStoreModel::Assemble(
    const Log& log, const std::vector<std::size_t>& live,
    std::vector<int> order, ValueRun /*values*/) const {
  std::vector<TLTuple> tuples;
  tuples.reserve(live.size());
  RuleNumbering numbering;
  for (std::size_t idx : live) {
    const Entry& e = log[idx].entry;
    numbering.Add(e.rule_key, static_cast<int>(tuples.size()));
    tuples.push_back(e.tuple);
  }
  std::vector<std::vector<int>> rules = numbering.Take();
  TuplePreparedSeed seed = FinishTupleSeed(tuples, std::move(order));
  TupleRelation rel(std::move(tuples), std::move(rules));
  return std::make_shared<const PreparedTupleRelation>(std::move(rel),
                                                       std::move(seed));
}

// ---------------------------------------------------------------------------
// AttrStoreModel

void AttrStoreModel::Derive(Entry* e) {
  e->expected_score = e->tuple.ExpectedScore();
  std::vector<ScoreValue> scratch;
  e->sorted_pdf.Build(e->tuple, &scratch);
}

AttrStoreModel::Entry AttrStoreModel::FromRelation(const AttrRelation& rel,
                                                   int i) {
  Entry e = MakeEntry(rel.tuple(i));
  Derive(&e);
  return e;
}

bool AttrStoreModel::Admit(const Log& /*log*/, Entry* e,
                           std::string* error) const {
  // Exactly the model validator's per-tuple rules, run on a one-element
  // relation.
  std::string model_error;
  if (!AttrRelation::Validate({e->tuple}, &model_error)) {
    SetError(error, std::move(model_error));
    return false;
  }
  Derive(e);
  return true;
}

void AttrStoreModel::Compacted(const std::vector<std::size_t>& remap) {
  for (ValueItem& item : base_value_run_) item.owner = remap[item.owner];
}

internal::ValueUniverse AttrStoreModel::MergeValueRun(
    const Log& log, std::size_t delta_start, bool consolidate) {
  std::vector<ValueItem> delta_values;
  for (std::size_t idx = delta_start; idx < log.size(); ++idx) {
    if (!log[idx].alive) continue;
    for (const ScoreValue& sv : log[idx].entry.tuple.pdf) {
      delta_values.push_back(ValueItem{sv.value, sv.prob, idx});
    }
  }
  std::sort(delta_values.begin(), delta_values.end());

  // The projected (value, mass) sequence is exactly the BuildValueUniverse
  // sort over the live entries' pairs: equal-value masses appear
  // ascending, and equal (value, mass) items add identically in any order.
  std::vector<ValueItem> merged;
  if (consolidate) {
    merged.reserve(base_value_run_.size() + delta_values.size());
  }
  const std::vector<ValueItem>* runs[] = {&base_value_run_, &delta_values};
  internal::ValueUniverse universe =
      internal::CollapseSortedValues([&](const auto& add) {
        MergeSortedRuns(
            runs, std::less<>{},
            [&log](const ValueItem& item) { return log[item.owner].alive; },
            [&](const ValueItem& item) {
              add(item.value, item.prob);
              if (consolidate) merged.push_back(item);
            });
      });
  if (consolidate) base_value_run_ = std::move(merged);
  return universe;
}

std::shared_ptr<const PreparedAttrRelation> AttrStoreModel::Assemble(
    const Log& log, const std::vector<std::size_t>& live,
    std::vector<int> order, ValueRun values) const {
  std::vector<AttrTuple> tuples;
  AttrPreparedSeed seed;
  tuples.reserve(live.size());
  seed.expected_scores.reserve(live.size());
  seed.sorted_pdfs.reserve(live.size());
  for (std::size_t idx : live) {
    const Entry& e = log[idx].entry;
    tuples.push_back(e.tuple);
    seed.expected_scores.push_back(e.expected_score);
    seed.sorted_pdfs.push_back(e.sorted_pdf);
  }
  seed.escore_order = std::move(order);
  seed.universe = std::move(values);
  AttrRelation rel(std::move(tuples));
  return std::make_shared<const PreparedAttrRelation>(std::move(rel),
                                                      std::move(seed));
}

}  // namespace engine_internal

// ---------------------------------------------------------------------------
// MutableRelation

template <typename Traits>
MutableRelation<Traits>::MutableRelation(MutableRelationOptions options)
    : options_(options) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  PublishLocked();
}

template <typename Traits>
MutableRelation<Traits>::MutableRelation(const Relation& rel,
                                         MutableRelationOptions options)
    : options_(options) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  entries_.reserve(static_cast<std::size_t>(rel.size()));
  for (int i = 0; i < rel.size(); ++i) {
    AppendLocked(Traits::FromRelation(rel, i));
  }
  PublishLocked();
}

template <typename Traits>
void MutableRelation<Traits>::AppendLocked(Entry entry) {
  const std::size_t idx = entries_.size();
  live_by_id_[entry.tuple.id] = idx;
  model_.Appended(entry, idx);
  entries_.push_back({std::move(entry), true});
  ++live_count_;
  dirty_ = true;
}

template <typename Traits>
bool MutableRelation<Traits>::InsertLocked(Entry entry, std::string* error) {
  if (live_by_id_.count(entry.tuple.id) > 0) {
    SetError(error, "duplicate tuple id " + std::to_string(entry.tuple.id));
    return false;
  }
  if (!model_.Admit(entries_, &entry, error)) return false;
  AppendLocked(std::move(entry));
  return true;
}

template <typename Traits>
std::size_t MutableRelation<Traits>::KillLocked(int id, std::string* error) {
  const auto it = live_by_id_.find(id);
  if (it == live_by_id_.end()) {
    SetError(error, "no live tuple with id " + std::to_string(id));
    return kNpos;
  }
  const std::size_t idx = it->second;
  entries_[idx].alive = false;
  live_by_id_.erase(it);
  --live_count_;
  return idx;
}

template <typename Traits>
bool MutableRelation<Traits>::InsertEntry(Entry entry, std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!InsertLocked(std::move(entry), error)) return false;
  MutationMetrics::Get().mutations.Increment();
  return true;
}

template <typename Traits>
bool MutableRelation<Traits>::Delete(int id, std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (KillLocked(id, error) == kNpos) return false;
  dirty_ = true;
  MutationMetrics::Get().mutations.Increment();
  return true;
}

template <typename Traits>
bool MutableRelation<Traits>::UpdateEntry(Entry entry, std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const int id = entry.tuple.id;
  // Tombstone the old version first so the model's gate (the rule mass)
  // sees the log without it, then re-insert at the tail; restore on
  // failure.
  const std::size_t old_idx = KillLocked(id, error);
  if (old_idx == kNpos) return false;
  if (!InsertLocked(std::move(entry), error)) {
    entries_[old_idx].alive = true;
    live_by_id_[id] = old_idx;
    ++live_count_;
    return false;
  }
  MutationMetrics::Get().mutations.Increment();
  return true;
}

template <typename Traits>
bool MutableRelation<Traits>::Apply(const std::vector<Mutation>& ops,
                                    std::string* error) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // Undo journal: entries appended by the batch are truncated; entries
  // that were alive before the batch and died during it are revived.
  const std::size_t old_size = entries_.size();
  const std::size_t old_live = live_count_;
  const bool old_dirty = dirty_;
  std::vector<std::size_t> killed;  // indices < old_size flipped dead

  auto kill_tracked = [&](int id, std::string* err) {
    const std::size_t idx = KillLocked(id, err);
    if (idx == kNpos) return false;
    if (idx < old_size) killed.push_back(idx);
    return true;
  };

  std::string op_error;
  bool ok = true;
  std::size_t failed_at = 0;
  for (std::size_t i = 0; i < ops.size() && ok; ++i) {
    const Mutation& op = ops[i];
    failed_at = i;
    switch (op.op) {
      case MutationOp::kInsert:
        ok = InsertLocked(Traits::FromMutation(op), &op_error);
        break;
      case MutationOp::kDelete:
        ok = kill_tracked(op.id, &op_error);
        break;
      case MutationOp::kUpdate:
        ok = kill_tracked(op.tuple.id, &op_error) &&
             InsertLocked(Traits::FromMutation(op), &op_error);
        break;
    }
  }
  if (ok) {
    if (!ops.empty()) dirty_ = true;
    MutationMetrics::Get().mutations.Increment(
        static_cast<long long>(ops.size()));
    return true;
  }

  // Roll back: drop batch-appended entries and their bookkeeping, then
  // revive the pre-batch entries the batch tombstoned.
  for (std::size_t idx = old_size; idx < entries_.size(); ++idx) {
    live_by_id_.erase(entries_[idx].entry.tuple.id);
  }
  model_.Truncated(entries_, old_size);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(old_size),
                 entries_.end());
  for (std::size_t idx : killed) {
    entries_[idx].alive = true;
    live_by_id_[entries_[idx].entry.tuple.id] = idx;
  }
  live_count_ = old_live;
  dirty_ = old_dirty;
  SetError(error, "op " + std::to_string(failed_at) + ": " + op_error);
  return false;
}

template <typename Traits>
void MutableRelation<Traits>::CompactLocked() {
  // Arrival-order-preserving removal of tombstones. Only called right
  // after a consolidation, so base_run_ holds live entries only and the
  // delta is empty.
  std::vector<std::size_t> remap(entries_.size(), kNpos);
  typename Traits::Log live;
  live.reserve(live_count_);
  for (std::size_t idx = 0; idx < entries_.size(); ++idx) {
    if (!entries_[idx].alive) continue;
    remap[idx] = live.size();
    live.push_back(std::move(entries_[idx]));
  }
  entries_ = std::move(live);
  for (std::size_t& idx : base_run_) idx = remap[idx];
  for (auto& [id, idx] : live_by_id_) idx = remap[idx];
  model_.Compacted(remap);
  delta_start_ = entries_.size();
  ++compactions_;
  MutationMetrics::Get().compactions.Increment();
}

template <typename Traits>
void MutableRelation<Traits>::PublishLocked() {
  const auto before = engine_internal::KeyDescIndexAsc(
      [this](std::size_t i) { return Traits::Key(entries_[i].entry); });

  std::vector<std::size_t> delta_run;
  delta_run.reserve(entries_.size() - delta_start_);
  for (std::size_t idx = delta_start_; idx < entries_.size(); ++idx) {
    if (entries_[idx].alive) delta_run.push_back(idx);
  }
  std::sort(delta_run.begin(), delta_run.end(), before);
  const bool consolidate =
      delta_run.size() >= options_.delta_merge_threshold;

  // Base + delta, filtering entries tombstoned since consolidation.
  std::vector<std::size_t> merged;
  merged.reserve(live_count_);
  const std::vector<std::size_t>* runs[] = {&base_run_, &delta_run};
  engine_internal::MergeSortedRuns(
      runs, before, [this](std::size_t i) { return entries_[i].alive; },
      [&merged](std::size_t i) { merged.push_back(i); });
  typename Traits::ValueRun values =
      model_.MergeValueRun(entries_, delta_start_, consolidate);

  if (consolidate) {
    base_run_ = std::move(merged);
    delta_start_ = entries_.size();
    ++delta_merges_;
    MutationMetrics::Get().delta_merges.Increment();
    const std::size_t dead = entries_.size() - live_count_;
    if (dead > live_count_ && dead >= options_.compact_min_dead) {
      CompactLocked();
    }
  }
  const std::vector<std::size_t>& order_run = consolidate ? base_run_ : merged;

  // Canonical logical contents: live entries in arrival order, and the
  // merged run relabeled to their positions.
  std::vector<std::size_t> pos_of_entry(entries_.size(), kNpos);
  std::vector<std::size_t> live;
  live.reserve(live_count_);
  for (std::size_t idx = 0; idx < entries_.size(); ++idx) {
    if (!entries_[idx].alive) continue;
    pos_of_entry[idx] = live.size();
    live.push_back(idx);
  }
  std::vector<int> order;
  order.reserve(order_run.size());
  for (std::size_t idx : order_run) {
    order.push_back(static_cast<int>(pos_of_entry[idx]));
  }
  std::shared_ptr<const Prepared> prepared =
      model_.Assemble(entries_, live, std::move(order), std::move(values));

  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    ++epoch_;
    snapshot_ = std::move(prepared);
    MutationMetrics::Get().epoch.SetMax(static_cast<double>(epoch_));
  }
  dirty_ = false;
  MutationMetrics::Get().publishes.Increment();
}

template <typename Traits>
EpochSnapshot<typename Traits::Prepared> MutableRelation<Traits>::Publish() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (dirty_) PublishLocked();
  return Snapshot();
}

template <typename Traits>
EpochSnapshot<typename Traits::Prepared> MutableRelation<Traits>::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return {epoch_, snapshot_};
}

template <typename Traits>
std::uint64_t MutableRelation<Traits>::epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return epoch_;
}

template <typename Traits>
void MutableRelation<Traits>::EnsureEpochAtLeast(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (epoch_ < epoch) {
    epoch_ = epoch;
    MutationMetrics::Get().epoch.SetMax(static_cast<double>(epoch_));
  }
}

template <typename Traits>
long long MutableRelation<Traits>::live_size() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return static_cast<long long>(live_count_);
}

template <typename Traits>
bool MutableRelation<Traits>::dirty() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return dirty_;
}

template <typename Traits>
std::uint64_t MutableRelation<Traits>::delta_merges() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return delta_merges_;
}

template <typename Traits>
std::uint64_t MutableRelation<Traits>::compactions() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return compactions_;
}

template class MutableRelation<engine_internal::TupleStoreModel>;
template class MutableRelation<engine_internal::AttrStoreModel>;

}  // namespace urank
