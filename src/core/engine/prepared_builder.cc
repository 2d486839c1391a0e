#include "core/engine/prepared_builder.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "core/internal/value_universe.h"
#include "core/rank_distribution_attr.h"
#include "util/check.h"

namespace urank {
namespace engine_internal {

TuplePreparedSeed FinishTupleSeed(const std::vector<TLTuple>& tuples,
                                  std::vector<int> rank_order) {
  const size_t n = tuples.size();
  URANK_CHECK_MSG(rank_order.size() == n,
                  "rank order does not cover the relation");
  TuplePreparedSeed seed;
  seed.rank_order = std::move(rank_order);
  seed.rank_probs.resize(n);
  seed.prefix_prob.assign(n + 1, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const double p = tuples[static_cast<size_t>(seed.rank_order[j])].prob;
    seed.rank_probs[j] = p;
    seed.prefix_prob[j + 1] = seed.prefix_prob[j] + p;
  }
  return seed;
}

TuplePreparedSeed EagerTupleSeed(const TupleRelation& rel) {
  const std::vector<TLTuple>& tuples = rel.tuples();
  std::vector<int> order(tuples.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), KeyDescIndexAsc([&](int i) {
              return tuples[static_cast<size_t>(i)].score;
            }));
  return FinishTupleSeed(tuples, std::move(order));
}

AttrPreparedSeed EagerAttrSeed(const AttrRelation& rel) {
  const size_t n = static_cast<size_t>(rel.size());
  AttrPreparedSeed seed;
  seed.expected_scores.reserve(n);
  for (const AttrTuple& t : rel.tuples()) {
    seed.expected_scores.push_back(t.ExpectedScore());
  }
  seed.escore_order.resize(n);
  std::iota(seed.escore_order.begin(), seed.escore_order.end(), 0);
  std::sort(seed.escore_order.begin(), seed.escore_order.end(),
            KeyDescIndexAsc([&](int i) {
              return seed.expected_scores[static_cast<size_t>(i)];
            }));
  seed.universe = internal::BuildValueUniverse(rel);
  seed.sorted_pdfs = BuildSortedPdfs(rel);
  return seed;
}

}  // namespace engine_internal

namespace {

using engine_internal::KeepAll;
using engine_internal::KeyDescIndexAsc;
using engine_internal::MergeSortedRuns;

// K-way merge of per-block index runs into one order (see the header for
// why the result equals std::sort over the concatenation).
template <typename Before>
std::vector<int> MergeBlockRuns(const std::vector<std::vector<int>>& runs,
                                size_t total, const Before& before) {
  std::vector<const std::vector<int>*> run_ptrs;
  for (const std::vector<int>& run : runs) run_ptrs.push_back(&run);
  std::vector<int> merged;
  merged.reserve(total);
  MergeSortedRuns(run_ptrs, before, KeepAll{},
                  [&merged](int i) { merged.push_back(i); });
  return merged;
}

}  // namespace

void PreparedTupleRelationBuilder::AddBlock(
    std::vector<TLTuple> tuples, const std::vector<int>& rule_keys) {
  URANK_CHECK_MSG(!sealed_, "AddBlock called on a sealed builder");
  URANK_CHECK_MSG(rule_keys.empty() || rule_keys.size() == tuples.size(),
                  "rule_keys must be empty or name one rule per tuple");
  const int base = static_cast<int>(count_);
  std::vector<int> run(tuples.size());
  std::iota(run.begin(), run.end(), base);
  std::sort(run.begin(), run.end(), KeyDescIndexAsc([&](int i) {
              return tuples[static_cast<size_t>(i - base)].score;
            }));
  count_ += static_cast<long long>(tuples.size());
  blocks_.push_back(std::move(tuples));
  block_rule_keys_.push_back(rule_keys);
  runs_.push_back(std::move(run));
}

std::shared_ptr<const PreparedTupleRelation>
PreparedTupleRelationBuilder::Seal() {
  URANK_CHECK_MSG(!sealed_, "Seal called twice");
  sealed_ = true;
  const size_t n = static_cast<size_t>(count_);

  std::vector<std::vector<int>> rules;
  {
    engine_internal::RuleNumbering numbering;
    int i = 0;
    for (size_t b = 0; b < blocks_.size(); ++b) {
      const std::vector<int>& keys = block_rule_keys_[b];
      for (size_t j = 0; j < blocks_[b].size(); ++j, ++i) {
        if (!keys.empty()) numbering.Add(keys[j], i);
      }
    }
    rules = numbering.Take();
    block_rule_keys_ = {};
  }

  // Consolidate the staged blocks into the final tuple vector exactly
  // once, freeing each block as it moves: peak = final vector + one
  // block, never two full copies of the relation.
  std::vector<TLTuple> tuples;
  tuples.reserve(n);
  for (std::vector<TLTuple>& block : blocks_) {
    tuples.insert(tuples.end(), std::make_move_iterator(block.begin()),
                  std::make_move_iterator(block.end()));
    std::vector<TLTuple>().swap(block);
  }
  blocks_ = {};

  std::vector<int> order =
      MergeBlockRuns(runs_, n, KeyDescIndexAsc([&](int i) {
                       return tuples[static_cast<size_t>(i)].score;
                     }));
  runs_.clear();
  runs_.shrink_to_fit();
  TuplePreparedSeed seed =
      engine_internal::FinishTupleSeed(tuples, std::move(order));

  TupleRelation rel(std::move(tuples), std::move(rules));
  return std::make_shared<const PreparedTupleRelation>(std::move(rel),
                                                       std::move(seed));
}

void PreparedAttrRelationBuilder::AddBlock(std::vector<AttrTuple> tuples) {
  URANK_CHECK_MSG(!sealed_, "AddBlock called on a sealed builder");
  const int base = static_cast<int>(tuples_.size());
  std::vector<int> run(tuples.size());
  std::iota(run.begin(), run.end(), base);

  size_t entries = 0;
  for (const AttrTuple& t : tuples) entries += t.pdf.size();
  std::vector<std::pair<double, double>> pairs;
  pairs.reserve(entries);

  tuples_.reserve(tuples_.size() + tuples.size());
  expected_scores_.reserve(expected_scores_.size() + tuples.size());
  sorted_pdfs_.reserve(sorted_pdfs_.size() + tuples.size());
  std::vector<ScoreValue> scratch;
  for (AttrTuple& t : tuples) {
    expected_scores_.push_back(t.ExpectedScore());
    sorted_pdfs_.emplace_back();
    sorted_pdfs_.back().Build(t, &scratch);
    for (const ScoreValue& sv : t.pdf) pairs.emplace_back(sv.value, sv.prob);
    tuples_.push_back(std::move(t));
  }

  std::sort(run.begin(), run.end(), KeyDescIndexAsc([&](int i) {
              return expected_scores_[static_cast<size_t>(i)];
            }));
  std::sort(pairs.begin(), pairs.end());
  escore_runs_.push_back(std::move(run));
  value_runs_.push_back(std::move(pairs));
}

std::shared_ptr<const PreparedAttrRelation>
PreparedAttrRelationBuilder::Seal() {
  URANK_CHECK_MSG(!sealed_, "Seal called twice");
  sealed_ = true;
  const size_t n = tuples_.size();

  AttrPreparedSeed seed;
  seed.escore_order =
      MergeBlockRuns(escore_runs_, n, KeyDescIndexAsc([&](int i) {
                       return expected_scores_[static_cast<size_t>(i)];
                     }));
  escore_runs_.clear();
  escore_runs_.shrink_to_fit();

  // The per-block sorted (value, mass) runs merge straight into the
  // collapse — no merged pair array is materialized.
  {
    std::vector<const std::vector<std::pair<double, double>>*> run_ptrs;
    for (const auto& run : value_runs_) run_ptrs.push_back(&run);
    seed.universe = internal::CollapseSortedValues([&](const auto& add) {
      MergeSortedRuns(run_ptrs, std::less<>{}, KeepAll{},
                      [&add](const std::pair<double, double>& vp) {
                        add(vp.first, vp.second);
                      });
    });
  }
  value_runs_.clear();
  value_runs_.shrink_to_fit();

  seed.expected_scores = std::move(expected_scores_);
  seed.sorted_pdfs = std::move(sorted_pdfs_);
  expected_scores_ = {};
  sorted_pdfs_ = {};

  AttrRelation rel(std::move(tuples_));
  tuples_ = {};
  return std::make_shared<const PreparedAttrRelation>(std::move(rel),
                                                      std::move(seed));
}

}  // namespace urank
