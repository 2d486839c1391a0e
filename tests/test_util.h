// Shared helpers for the urank test suite: the paper's worked examples
// (Figs. 2 and 4) and randomized small-instance generators for
// cross-checking the polynomial algorithms against possible-worlds
// enumeration.

#ifndef URANK_TESTS_TEST_UTIL_H_
#define URANK_TESTS_TEST_UTIL_H_

#include <span>
#include <utility>
#include <vector>

#include "core/engine/prepared_relation.h"
#include "core/engine/query_engine.h"
#include "gtest/gtest.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "util/rng.h"

namespace urank {
namespace testing_util {

// The attribute-level example of paper Fig. 2:
//   t1 {(100, 0.4), (70, 0.6)}, t2 {(92, 0.6), (80, 0.4)}, t3 {(85, 1)}.
// Ids are 1-based to match the paper's t1..t3.
inline AttrRelation PaperFig2() {
  return AttrRelation({
      {1, {{100.0, 0.4}, {70.0, 0.6}}},
      {2, {{92.0, 0.6}, {80.0, 0.4}}},
      {3, {{85.0, 1.0}}},
  });
}

// The tuple-level example of paper Fig. 4:
//   t1 (p=0.4), t2 (p=0.5), t3 (p=1.0), t4 (p=0.5), scores descending in
//   index order; rules {t1}, {t2, t4}, {t3}. Ids are 1-based.
inline TupleRelation PaperFig4() {
  return TupleRelation(
      {
          {1, 100.0, 0.4},
          {2, 90.0, 0.5},
          {3, 80.0, 1.0},
          {4, 70.0, 0.5},
      },
      {{0}, {1, 3}, {2}});
}

// A random small attribute-level relation with enumerable worlds: n tuples,
// pdf sizes in [1, max_s], values from a small integer grid (to exercise
// cross-tuple ties), probabilities from the simplex.
inline AttrRelation RandomSmallAttr(Rng& rng, int n, int max_s,
                                    int value_grid = 12) {
  std::vector<AttrTuple> tuples;
  for (int i = 0; i < n; ++i) {
    const int s = static_cast<int>(rng.UniformInt(1, max_s));
    std::vector<double> probs = rng.RandomSimplex(s, 1.0);
    AttrTuple t;
    t.id = i;
    // Distinct values within the tuple, drawn without replacement from the
    // grid.
    std::vector<int> grid(static_cast<size_t>(value_grid));
    for (int g = 0; g < value_grid; ++g) grid[static_cast<size_t>(g)] = g + 1;
    rng.Shuffle(grid);
    for (int l = 0; l < s; ++l) {
      t.pdf.push_back({static_cast<double>(grid[static_cast<size_t>(l)]),
                       probs[static_cast<size_t>(l)]});
    }
    tuples.push_back(std::move(t));
  }
  return AttrRelation(std::move(tuples));
}

// A random small tuple-level relation with enumerable worlds. Roughly half
// the tuples are paired into 2-3 member exclusion rules. Scores come from
// a small grid so ties occur.
inline TupleRelation RandomSmallTuple(Rng& rng, int n, int value_grid = 12) {
  std::vector<TLTuple> tuples;
  for (int i = 0; i < n; ++i) {
    tuples.push_back(
        {i, static_cast<double>(rng.UniformInt(1, value_grid)),
         rng.Uniform(0.05, 1.0)});
  }
  std::vector<int> pool(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pool[static_cast<size_t>(i)] = i;
  rng.Shuffle(pool);
  std::vector<std::vector<int>> rules;
  size_t pos = 0;
  while (pos + 1 < pool.size() / 2 + 1 && pos + 1 < pool.size()) {
    const size_t size = static_cast<size_t>(rng.UniformInt(2, 3));
    const size_t end = std::min(pos + size, pool.size());
    if (end - pos < 2) break;
    std::vector<int> members(pool.begin() + static_cast<long>(pos),
                             pool.begin() + static_cast<long>(end));
    double sum = 0.0;
    for (int idx : members) sum += tuples[static_cast<size_t>(idx)].prob;
    if (sum > 1.0) {
      for (int idx : members) {
        tuples[static_cast<size_t>(idx)].prob *= (1.0 - 1e-9) / sum;
      }
    }
    rules.push_back(std::move(members));
    pos = end;
  }
  return TupleRelation(std::move(tuples), std::move(rules));
}

// Prepared state for a relation, the only input the per-semantics
// statistic and top-k functions take: Prepared(rel) reads like the
// relation it wraps at a call site such as AttrPTk(Prepared(rel), k, p).
inline PreparedAttrRelation Prepared(AttrRelation rel) {
  return PreparedAttrRelation(std::move(rel));
}
inline PreparedTupleRelation Prepared(TupleRelation rel) {
  return PreparedTupleRelation(std::move(rel));
}

// EXPECT element-wise closeness of two double sequences. `actual` is a
// span so the streamed kernel callbacks (which hand out views of aligned
// scratch) can be checked without copying; braced-init expected values
// bind to the vector parameter.
inline void ExpectNearVectors(std::span<const double> actual,
                              const std::vector<double>& expected,
                              double tol) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tol) << "at index " << i;
  }
}

// Runs `request` with prune=true on a fresh engine over `rel`, then with
// prune=false on the same engine (a pruned run never warms the memo, so
// the second run is the full unpruned kernel), and expects bit-identical
// answers — ids and statistics, EXPECT_EQ. Also checks the pruned run's
// scan statistics are sound. Returns the pruned run's stats.
template <typename Relation>
QueryStats ExpectPruneMatchesUnpruned(const Relation& rel,
                                      QueryRequest request) {
  const QueryEngine engine{QueryEngine::Prepare(rel)};
  request.prune = true;
  const QueryResult pruned = engine.Run(request);
  request.prune = false;
  const QueryResult full = engine.Run(request);
  EXPECT_TRUE(pruned.status.ok()) << pruned.status.message;
  EXPECT_TRUE(full.status.ok()) << full.status.message;
  EXPECT_EQ(pruned.answer.ids, full.answer.ids);
  EXPECT_EQ(pruned.answer.statistics, full.answer.statistics);
  EXPECT_FALSE(pruned.stats.reused_cache);
  EXPECT_LE(pruned.stats.tuples_scanned, pruned.stats.prune_stop_position);
  EXPECT_LE(pruned.stats.prune_stop_position, rel.size());
  return pruned.stats;
}

// A QueryRequest for `semantics` at `k` under `ties` (phi and threshold
// keep their defaults unless the caller sets them).
inline QueryRequest Request(RankingSemantics semantics, int k,
                            TiePolicy ties = TiePolicy::kBreakByIndex) {
  QueryRequest request;
  request.options.semantics = semantics;
  request.options.k = k;
  request.options.ties = ties;
  return request;
}

}  // namespace testing_util
}  // namespace urank

#endif  // URANK_TESTS_TEST_UTIL_H_
