#include "core/engine/prepared_relation.h"

#include <utility>

#include "core/engine/prepared_builder.h"
#include "core/engine/trace.h"
#include "core/rank_distribution_attr.h"
#include "util/check.h"
#include "util/metrics.h"

namespace urank {

namespace {

// Statistic-memo metrics, shared by both prepared-relation flavours. A
// lookup is a miss exactly when its compute lambda ran; callers that
// merely wait on another thread's in-flight compute count as hits (they
// paid latency but no work).
struct StatCacheMetrics {
  metrics::Counter& hits;
  metrics::Counter& misses;

  static const StatCacheMetrics& Get() {
    metrics::Registry& r = metrics::Registry::Global();
    static const StatCacheMetrics m{
        r.counter("urank_engine_stat_cache_hits_total"),
        r.counter("urank_engine_stat_cache_misses_total")};
    return m;
  }
};

// Pairs a relation with the seed `derive` computes from it, so the eager
// constructors can delegate to the seed constructors: the seed is derived
// before the relation moves into the pair.
template <typename Relation, typename Seed>
std::pair<Relation, Seed> WithSeed(Relation rel,
                                   Seed (*derive)(const Relation&)) {
  Seed seed = derive(rel);
  return {std::move(rel), std::move(seed)};
}

template <typename T, typename Fn>
T InstrumentedLookup(const Fn& lookup) {
  bool computed = false;
  T result = lookup(&computed);
  const StatCacheMetrics& cm = StatCacheMetrics::Get();
  (computed ? cm.misses : cm.hits).Increment();
  return result;
}

}  // namespace

PreparedAttrRelation::PreparedAttrRelation(AttrRelation rel)
    : PreparedAttrRelation(
          WithSeed(std::move(rel), &engine_internal::EagerAttrSeed)) {}

PreparedAttrRelation::PreparedAttrRelation(
    std::pair<AttrRelation, AttrPreparedSeed> seeded)
    : PreparedAttrRelation(std::move(seeded.first),
                           std::move(seeded.second)) {}

PreparedAttrRelation::PreparedAttrRelation(AttrRelation rel,
                                           AttrPreparedSeed seed)
    : rel_(std::move(rel)),
      expected_scores_(std::move(seed.expected_scores)),
      escore_order_(std::move(seed.escore_order)),
      universe_(std::move(seed.universe)),
      sorted_pdfs_(std::move(seed.sorted_pdfs)) {
  const int n = rel_.size();
  URANK_CHECK_MSG(
      expected_scores_.size() == static_cast<size_t>(n) &&
          escore_order_.size() == static_cast<size_t>(n) &&
          sorted_pdfs_.size() == static_cast<size_t>(n),
      "attr preparation seed does not match the relation size");
  ids_.resize(static_cast<size_t>(n));
  position_of_id_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ids_[static_cast<size_t>(i)] = rel_.tuple(i).id;
    position_of_id_[rel_.tuple(i).id] = i;
  }
  shard_plan_ = internal::BuildAttrShardPlan(rel_, /*first_touch=*/true);
}

int PreparedAttrRelation::PositionOfId(int id) const {
  const auto it = position_of_id_.find(id);
  return it == position_of_id_.end() ? -1 : it->second;
}

std::shared_ptr<const std::vector<std::vector<double>>>
PreparedAttrRelation::RankDistributions(TiePolicy ties,
                                        const ParallelismOptions& par,
                                        KernelReport* report) const {
  using Result = std::shared_ptr<const std::vector<std::vector<double>>>;
  return InstrumentedLookup<Result>([&](bool* computed) {
    return dists_.GetOrCompute(static_cast<int>(ties), [&] {
      *computed = true;
      URANK_TRACE_SPAN("engine.stat_compute");
      return AttrRankDistributions(rel_, sorted_pdfs_, ties, par, report);
    });
  });
}

std::shared_ptr<const std::vector<double>> PreparedAttrRelation::CachedStat(
    const StatKey& key,
    const std::function<std::vector<double>()>& compute) const {
  using Result = std::shared_ptr<const std::vector<double>>;
  return InstrumentedLookup<Result>([&](bool* computed) {
    return stats_.GetOrCompute(key, [&] {
      *computed = true;
      URANK_TRACE_SPAN("engine.stat_compute");
      return compute();
    });
  });
}

bool PreparedAttrRelation::HasCachedStat(const StatKey& key) const {
  return stats_.Contains(key);
}

PreparedTupleRelation::PreparedTupleRelation(TupleRelation rel)
    : PreparedTupleRelation(
          WithSeed(std::move(rel), &engine_internal::EagerTupleSeed)) {}

PreparedTupleRelation::PreparedTupleRelation(
    std::pair<TupleRelation, TuplePreparedSeed> seeded)
    : PreparedTupleRelation(std::move(seeded.first),
                            std::move(seeded.second)) {}

PreparedTupleRelation::PreparedTupleRelation(TupleRelation rel,
                                             TuplePreparedSeed seed)
    : rel_(std::move(rel)),
      rank_order_(std::move(seed.rank_order)),
      prefix_prob_(std::move(seed.prefix_prob)) {
  const int n = rel_.size();
  URANK_CHECK_MSG(
      rank_order_.size() == static_cast<size_t>(n) &&
          prefix_prob_.size() == static_cast<size_t>(n) + 1 &&
          seed.rank_probs.size() == static_cast<size_t>(n),
      "tuple preparation seed does not match the relation size");
  ids_.resize(static_cast<size_t>(n));
  position_of_id_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ids_[static_cast<size_t>(i)] = rel_.tuple(i).id;
    position_of_id_[rel_.tuple(i).id] = i;
  }
  // The grid and every copied value are pure functions of (rel, order);
  // the pre-gathered probs only skip the planner's gather pass.
  shard_plan_ = internal::BuildTupleShardPlan(
      rel_, rank_order_, &seed.rank_probs, /*first_touch=*/true);
}

std::shared_ptr<const TupleSweepEntryTable>
PreparedTupleRelation::SweepEntries(TiePolicy ties) const {
  return sweep_entries_.GetOrCompute(static_cast<int>(ties), [&] {
    return BuildTupleSweepEntryTable(rel_, rank_order_, ties);
  });
}

int PreparedTupleRelation::PositionOfId(int id) const {
  const auto it = position_of_id_.find(id);
  return it == position_of_id_.end() ? -1 : it->second;
}

std::shared_ptr<const std::vector<double>> PreparedTupleRelation::CachedStat(
    const StatKey& key,
    const std::function<std::vector<double>()>& compute) const {
  using Result = std::shared_ptr<const std::vector<double>>;
  return InstrumentedLookup<Result>([&](bool* computed) {
    return stats_.GetOrCompute(key, [&] {
      *computed = true;
      URANK_TRACE_SPAN("engine.stat_compute");
      return compute();
    });
  });
}

bool PreparedTupleRelation::HasCachedStat(const StatKey& key) const {
  return stats_.Contains(key);
}

}  // namespace urank
