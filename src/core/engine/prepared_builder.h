// Preparation: the one seed finish every producer of prepared state runs,
// and the blocked / streaming builders on top of it.
//
// Three producers hand a Prepared*Relation its seed (prepared_relation.h):
// the eager constructors (one std::sort over the whole relation), the
// blocked builders below (per-block runs merged at Seal), and the mutable
// store's Publish (a base run merged with a sorted delta, tombstones
// filtered — core/engine/mutable_relation.h). All three derive the seed
// through the functions in engine_internal below, so the bit-identity
// argument is made once, here:
//   * every order is KeyDescIndexAsc — key descending, index ascending, a
//     strict total order because indices are unique — so the sorted
//     sequence is unique, and MergeSortedRuns over runs sorted under it
//     equals one std::sort of their union (filtering tombstones is
//     monotone in the index, so it keeps runs sorted);
//   * prefix probability sums are one plain left-to-right pass over the
//     final order (FinishTupleSeed) — never per-run partial sums stitched
//     by offset, which would reassociate the floating-point additions;
//   * the q(v) universe is one collapse of the ascending (value, mass)
//     sequence (internal::CollapseSortedValues), fed by a sort or a merge;
//   * exclusion rules are numbered by the first appearance of their key,
//     members in input order (RuleNumbering) — the convention an eager
//     caller building a rules vector in one pass uses;
//   * shard plans come from the same Build*ShardPlan planners (pure
//     functions of relation + order) — block or run boundaries never leak
//     into shard boundaries, which the determinism contract requires to
//     be functions of the data only.
//
// The builders accept the relation in blocks (any sizes, any order): each
// AddBlock sorts only its block into a run and folds the block into the
// running per-block summaries; Seal() merges the runs and hands the seed
// to the PreparedRelation seed constructor. The eager flow materializes
// the whole relation, sorts N positions in one call and scans the result
// — three O(N) peaks that all coexist at N=1M; the builders avoid that.
//
// The builders are single-threaded state machines: AddBlock/Seal must not
// race. The sealed PreparedRelation has the usual thread-safety.

#ifndef URANK_CORE_ENGINE_PREPARED_BUILDER_H_
#define URANK_CORE_ENGINE_PREPARED_BUILDER_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <queue>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace urank {
namespace engine_internal {

// The order of every prepared sort, run and merge: key descending, index
// ascending. `key_of(i)` maps an index to its key (score, expected score).
template <typename KeyOf>
auto KeyDescIndexAsc(KeyOf key_of) {
  return [key_of](auto a, auto b) {
    const double ka = key_of(a);
    const double kb = key_of(b);
    if (ka != kb) return ka > kb;
    return a < b;
  };
}

// Keep-everything filter for MergeSortedRuns.
struct KeepAll {
  template <typename T>
  bool operator()(const T&) const {
    return true;
  }
};

// Merges runs each sorted under `before`, calling emit(x) for every x with
// keep(x) in merged order. `runs` is a sized random-access container of
// pointers to std::vector runs. Up to two runs merge linearly (the store's
// base + delta, on the mutate-ack path); more go through a heap of run
// heads (the builders' k-way merge).
template <typename RunPtrs, typename Before, typename Keep, typename Emit>
void MergeSortedRuns(const RunPtrs& runs, const Before& before,
                     const Keep& keep, const Emit& emit) {
  using Run = std::remove_cvref_t<decltype(*runs[0])>;
  const std::size_t k = std::size(runs);
  auto next_kept = [&keep](const Run& run, std::size_t pos) {
    while (pos < run.size() && !keep(run[pos])) ++pos;
    return pos;
  };
  if (k <= 2) {
    const Run none;
    const Run& a = k > 0 ? *runs[0] : none;
    const Run& b = k > 1 ? *runs[1] : none;
    std::size_t i = next_kept(a, 0);
    std::size_t j = next_kept(b, 0);
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && before(a[i], b[j]))) {
        emit(a[i]);
        i = next_kept(a, i + 1);
      } else {
        emit(b[j]);
        j = next_kept(b, j + 1);
      }
    }
    return;
  }
  struct Cursor {
    std::size_t run = 0;
    std::size_t pos = 0;
  };
  auto worse = [&](const Cursor& x, const Cursor& y) {
    return before((*runs[y.run])[y.pos], (*runs[x.run])[x.pos]);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(worse)> heads(
      worse);
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t pos = next_kept(*runs[r], 0);
    if (pos < runs[r]->size()) heads.push(Cursor{r, pos});
  }
  while (!heads.empty()) {
    Cursor c = heads.top();
    heads.pop();
    emit((*runs[c.run])[c.pos]);
    c.pos = next_kept(*runs[c.run], c.pos + 1);
    if (c.pos < runs[c.run]->size()) heads.push(c);
  }
}

// Numbers exclusion rules by the first appearance of their key, members
// in the order added. Negative keys mean "independent" and are skipped
// (the TupleRelation constructor supplies their singleton rules).
class RuleNumbering {
 public:
  void Add(long long key, int position) {
    if (key < 0) return;
    const auto [it, inserted] = rule_of_key_.try_emplace(key, rules_.size());
    if (inserted) rules_.emplace_back();
    rules_[it->second].push_back(position);
  }
  // Hands the rules over and frees the key index. Call it as soon as the
  // last key is added: freeing the per-rule nodes after the relation's
  // large allocations instead doubled the store's publish time at N=100k
  // (4-core x86-64 VM, glibc malloc).
  std::vector<std::vector<int>> Take() {
    std::unordered_map<long long, std::size_t>().swap(rule_of_key_);
    return std::move(rules_);
  }

 private:
  std::unordered_map<long long, std::size_t> rule_of_key_;
  std::vector<std::vector<int>> rules_;
};

// Completes a tuple seed from its rank order: gathers the probabilities
// by sweep position and runs the one prefix-sum pass.
TuplePreparedSeed FinishTupleSeed(const std::vector<TLTuple>& tuples,
                                  std::vector<int> rank_order);

// The eager seeds: one std::sort over the whole relation, then the same
// finish. The eager Prepared*Relation constructors delegate through these.
TuplePreparedSeed EagerTupleSeed(const TupleRelation& rel);
AttrPreparedSeed EagerAttrSeed(const AttrRelation& rel);

}  // namespace engine_internal

// Streaming preparation of a tuple-level relation.
//
// Exclusion rules may span blocks: `rule_keys[i]` is an arbitrary
// caller-chosen key naming the exclusion rule of `tuples[i]`; tuples with
// the same non-negative key (within or across blocks) form one rule, and
// a negative key means "independent" (singleton rule, supplied by the
// TupleRelation constructor). Rules are numbered by first appearance in
// input order — the same convention an eager caller building an explicit
// rules vector in input order uses. An empty rule_keys vector marks the
// whole block independent.
class PreparedTupleRelationBuilder {
 public:
  PreparedTupleRelationBuilder() = default;
  PreparedTupleRelationBuilder(const PreparedTupleRelationBuilder&) = delete;
  PreparedTupleRelationBuilder& operator=(const PreparedTupleRelationBuilder&) =
      delete;

  // Appends one block. The block need not be sorted; it is sorted into a
  // KeyDescIndexAsc run (score, global index) immediately, so the seal-time
  // merge touches each position O(log #blocks) times instead of re-sorting
  // N.
  void AddBlock(std::vector<TLTuple> tuples,
                const std::vector<int>& rule_keys = {});

  // Number of tuples added so far.
  long long size() const { return count_; }

  // Merges the runs, assembles the relation (aborts on a malformed model,
  // like the TupleRelation constructor) and returns the prepared state.
  // The builder is consumed: further AddBlock/Seal calls abort.
  std::shared_ptr<const PreparedTupleRelation> Seal();

 private:
  bool sealed_ = false;
  long long count_ = 0;
  // Blocks stay staged exactly as handed in (moved, never re-appended to
  // a growing copy) and consolidate once at Seal, each block freed as it
  // moves — the builder's peak holds ~one relation plus one block rather
  // than the caller's vector and a second reallocating copy.
  std::vector<std::vector<TLTuple>> blocks_;
  std::vector<std::vector<int>> block_rule_keys_;  // empty => all singleton
  std::vector<std::vector<int>> runs_;  // per-block sorted global indices
};

// Streaming preparation of an attribute-level relation. Blocks carry the
// tuples only; pdf summaries (sorted pdfs, expected scores, per-block
// value runs for the q(v) universe) are folded in per block.
class PreparedAttrRelationBuilder {
 public:
  PreparedAttrRelationBuilder() = default;
  PreparedAttrRelationBuilder(const PreparedAttrRelationBuilder&) = delete;
  PreparedAttrRelationBuilder& operator=(const PreparedAttrRelationBuilder&) =
      delete;

  void AddBlock(std::vector<AttrTuple> tuples);

  long long size() const { return static_cast<long long>(tuples_.size()); }

  std::shared_ptr<const PreparedAttrRelation> Seal();

 private:
  bool sealed_ = false;
  std::vector<AttrTuple> tuples_;
  std::vector<double> expected_scores_;  // aligned with tuples_
  std::vector<internal::SortedPdf> sorted_pdfs_;
  std::vector<std::vector<int>> escore_runs_;  // per-block sorted indices
  // Per-block (value, mass) pairs sorted ascending — the block's slice of
  // the global value universe before collapsing.
  std::vector<std::vector<std::pair<double, double>>> value_runs_;
};

}  // namespace urank

#endif  // URANK_CORE_ENGINE_PREPARED_BUILDER_H_
