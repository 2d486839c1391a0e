// Bit-identity of the parallel DP kernels: every parallel-capable entry
// point must return *exactly* the same bytes for any ParallelismOptions —
// threads 1, 2, 8 (oversubscribed or not), any min_parallel_cells — and
// must match a one-thread serial sweep of the kernel-level reference
// forms. The chunk grid is a pure function of the
// relation, per-chunk subproblems are self-contained, and reductions fold
// in chunk index order, so these comparisons use EXPECT_EQ on doubles, not
// tolerances. This file runs under TSan in CI to also certify the chunk
// protocol data-race-free.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "common/scenario_gen.h"
#include "test_util.h"
#include "core/engine/prepared_builder.h"
#include "core/engine/query_engine.h"
#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/internal/shard_plan.h"
#include "core/quantile_rank.h"
#include "core/rank_distribution_attr.h"
#include "core/rank_distribution_tuple.h"
#include "core/semantics/semantics.h"
#include "core/semantics/u_kranks.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "model/tuple_model.h"
#include "util/parallel.h"
#include "util/topology.h"

namespace urank {
namespace {

ParallelismOptions Par(int threads) {
  ParallelismOptions par;
  par.threads = threads;
  par.min_parallel_cells = 1;  // parallelize even the test-sized inputs
  return par;
}

ParallelismOptions Par(int threads, PlacementPolicy placement) {
  ParallelismOptions par = Par(threads);
  par.placement = placement;
  return par;
}

constexpr PlacementPolicy kAllPlacements[] = {PlacementPolicy::kFlat,
                                              PlacementPolicy::kNodeLocal,
                                              PlacementPolicy::kSpread};

// Synthetic planning topologies the sharded kernels are swept under: the
// machine's own shape plus a two-node and an asymmetric four-node box.
// Shard homes and placement schedules change with the shape; values must
// not. The pool itself is built once from the machine topology — these
// affect planning (home nodes, clamps, spread ranges) only, which is
// exactly the layer that must never leak into results.
constexpr const char* kSyntheticTopologies[] = {"0-3;4-7",
                                                "0-1;2-3;4-5;6-11"};

// Swaps the planning topology for the test body and restores a detected
// topology on destruction so later tests see the machine again.
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

// A relation built to stress the chunked sweep: large enough for several
// chunks, long runs of tied scores that straddle naive chunk boundaries,
// a few hundred wide exclusion rules (so the Poisson-binomial support
// stays small and the test stays fast), plus high-probability singletons
// including certain (p = 1) tuples.
TupleRelation MakeClusteredTupleRelation(int n, int num_shared_rules,
                                         int num_singletons) {
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  std::vector<std::vector<int>> rules(static_cast<size_t>(num_shared_rules));
  for (int i = 0; i < n; ++i) {
    TLTuple& t = tuples[static_cast<size_t>(i)];
    t.id = 2 * i + 5;  // non-contiguous ids catch id/index mixups
    t.score = static_cast<double>((i * 7919) % 97);  // ~n/97-long tie runs
    if (i < num_singletons) {
      t.prob = (i % 10 == 0) ? 1.0 : 0.25 + 0.7 * ((i * 13) % 101) / 101.0;
    } else {
      rules[static_cast<size_t>(i % num_shared_rules)].push_back(i);
      t.prob = 0.0;  // filled below once member counts are known
    }
  }
  for (const std::vector<int>& members : rules) {
    const double p = 0.95 / static_cast<double>(members.size());
    for (int i : members) tuples[static_cast<size_t>(i)].prob = p;
  }
  return TupleRelation(std::move(tuples), std::move(rules));
}

// Exact fingerprint of a distribution row: hashes the length plus the
// (position, bit pattern) of every nonzero entry, so any single bit of
// difference anywhere in the row — including a stray nonzero among the
// zero tail — changes it. Skipping exact zeros keeps the fingerprint
// O(support) instead of O(N) on the sparse N+1-sized rank rows.
std::uint64_t RowFingerprint(std::span<const double> row) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull + row.size();
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i] == 0.0) continue;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &row[i], sizeof(bits));
    h ^= i + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

class TupleKernelDeterminismTest
    : public ::testing::TestWithParam<TiePolicy> {
 protected:
  static constexpr int kN = 33000;  // 4 chunks at the default 8192 grain
  TupleRelation rel_ = MakeClusteredTupleRelation(kN, 64, 200);
};

INSTANTIATE_TEST_SUITE_P(BothTiePolicies, TupleKernelDeterminismTest,
                         ::testing::Values(TiePolicy::kBreakByIndex,
                                           TiePolicy::kStrictGreater));

TEST_P(TupleKernelDeterminismTest, RankDistributionsBitIdentical) {
  const TiePolicy ties = GetParam();
  ASSERT_GE(TupleSweepChunkCount(rel_), 2);
  const auto prepared = QueryEngine::Prepare(rel_);

  // Serial baseline (kernel-level raw form, no prepared state).
  std::vector<std::uint64_t> baseline(static_cast<size_t>(kN), 0);
  ForEachTupleRankDistribution(
      rel_, ties, [&](int i, std::span<const double> dist) {
        baseline[static_cast<size_t>(i)] = RowFingerprint(dist);
      });

  for (int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> got(static_cast<size_t>(kN), 0);
    std::vector<std::uint8_t> chunk_seen(
        static_cast<size_t>(TupleSweepChunkCount(rel_)), 0);
    KernelReport report;
    ForEachTupleRankDistribution(
        rel_, prepared->rank_order(), ties, Par(threads), &report,
        [&](int chunk, int i, std::span<const double> dist) {
          got[static_cast<size_t>(i)] = RowFingerprint(dist);
          chunk_seen[static_cast<size_t>(chunk)] = 1;
        });
    EXPECT_EQ(got, baseline) << "threads=" << threads;
    EXPECT_GE(report.threads_used, 1);
    int populated = 0;
    for (std::uint8_t s : chunk_seen) populated += s;
    EXPECT_GE(populated, 2) << "grid should span several chunks";
  }
}

TEST_P(TupleKernelDeterminismTest, PositionalDistributionsBitIdentical) {
  const TiePolicy ties = GetParam();
  const auto prepared = QueryEngine::Prepare(rel_);

  std::vector<std::uint64_t> baseline(static_cast<size_t>(kN), 0);
  ForEachTuplePositionalDistribution(
      rel_, ties, [&](int i, std::span<const double> row) {
        baseline[static_cast<size_t>(i)] = RowFingerprint(row);
      });

  for (int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> got(static_cast<size_t>(kN), 0);
    KernelReport report;
    ForEachTuplePositionalDistribution(
        rel_, prepared->rank_order(), ties, Par(threads), &report,
        [&](int /*chunk*/, int i, std::span<const double> row) {
          got[static_cast<size_t>(i)] = RowFingerprint(row);
        });
    EXPECT_EQ(got, baseline) << "threads=" << threads;
  }
}

TEST_P(TupleKernelDeterminismTest, PreparedSemanticsBitIdentical) {
  const TiePolicy ties = GetParam();
  constexpr int kK = 25;
  constexpr double kPhi = 0.5;

  // Serial prepared baseline. Each thread count gets its own prepared
  // object: a shared one would serve the later runs from the memoized
  // statistic cache and make the comparison vacuous.
  const auto serial = QueryEngine::Prepare(rel_);
  const std::vector<int> base_ranks = TupleQuantileRanks(*serial, kPhi, ties);
  const std::vector<double> base_probs =
      TupleTopKProbabilities(*serial, kK, ties);
  const std::vector<int> base_winners = TupleUKRanks(*serial, kK, ties);

  for (int threads : {2, 8}) {
    const auto prepared = QueryEngine::Prepare(rel_);
    KernelReport report;
    EXPECT_EQ(TupleQuantileRanks(*prepared, kPhi, ties, Par(threads), &report),
              base_ranks)
        << "threads=" << threads;
    EXPECT_EQ(
        TupleTopKProbabilities(*prepared, kK, ties, Par(threads), &report),
        base_probs)
        << "threads=" << threads;
    // UKRanks folds per-chunk argmax partials; ids must match exactly.
    const auto fresh = QueryEngine::Prepare(rel_);
    EXPECT_EQ(TupleUKRanks(*fresh, kK, ties, Par(threads), &report),
              base_winners)
        << "threads=" << threads;
  }
}

// The serial T-ERank sweep: a single-shard plan (zero entry state, one
// prefix sum over the whole rank order) run on one thread.
std::vector<double> SerialExpectedRanks(const TupleRelation& rel,
                                        const std::vector<int>& rank_order,
                                        TiePolicy ties) {
  const internal::TupleShardPlan single = internal::BuildTupleShardPlan(
      rel, rank_order, /*first_touch=*/false, /*max_shards=*/1);
  EXPECT_EQ(single.shards.size(), 1u);
  return TupleExpectedRanksSharded(rel, single, ties, ParallelismOptions{});
}

// The tentpole sweep: the sharded T-ERank must be bit-identical to the
// serial sweep for every (synthetic topology × placement policy × thread
// count × shard count). The shard plan is rebuilt under each topology —
// home nodes move around — and EXPECT_EQ on the double vectors asserts
// that none of it reaches the values.
TEST_P(TupleKernelDeterminismTest, ShardedExpectedRanksBitIdentical) {
  const TiePolicy ties = GetParam();
  const auto prepared = QueryEngine::Prepare(rel_);
  const std::vector<double> baseline =
      SerialExpectedRanks(rel_, prepared->rank_order(), ties);

  for (const char* spec : kSyntheticTopologies) {
    ScopedPlanningTopology topo(spec);
    for (int max_shards : {0, 1, 4, 16}) {
      const internal::TupleShardPlan plan = internal::BuildTupleShardPlan(
          rel_, prepared->rank_order(), /*first_touch=*/false, max_shards);
      ASSERT_GE(static_cast<int>(plan.shards.size()), 1);
      for (PlacementPolicy placement : kAllPlacements) {
        for (int threads : {1, 2, 8}) {
          KernelReport report;
          EXPECT_EQ(TupleExpectedRanksSharded(rel_, plan, ties,
                                              Par(threads, placement),
                                              &report),
                    baseline)
              << "topology=" << spec << " placement=" << ToString(placement)
              << " threads=" << threads << " max_shards=" << max_shards;
          EXPECT_GE(report.threads_used, 1);
          EXPECT_GE(report.nodes_used, 1);
        }
      }
    }
  }
}

// The prepared relation's default (multi-shard) plan against the serial
// single-shard sweep, statistic and top-k selection both.
TEST_P(TupleKernelDeterminismTest, PreparedShardPlanMatchesSerialFacade) {
  const TiePolicy ties = GetParam();
  const auto reference = QueryEngine::Prepare(rel_);
  const std::vector<double> baseline =
      SerialExpectedRanks(rel_, reference->rank_order(), ties);
  const std::vector<RankedTuple> serial_topk =
      TopKByStatistic(reference->ids(), baseline, 25);
  // Fresh prepared state per placement: a shared object would serve later
  // runs from the memo cache and make the comparison vacuous.
  for (PlacementPolicy placement : kAllPlacements) {
    const auto prepared = QueryEngine::Prepare(rel_);
    KernelReport report;
    EXPECT_EQ(TupleExpectedRanks(*prepared, ties, Par(8, placement), &report),
              baseline)
        << ToString(placement);
    // The top-k selection over the same statistic must agree with the
    // serial selection, ids and values both.
    const std::vector<RankedTuple> topk =
        TupleExpectedRankTopK(*prepared, 25, ties, Par(8, placement));
    ASSERT_EQ(topk.size(), serial_topk.size());
    for (size_t i = 0; i < topk.size(); ++i) {
      EXPECT_EQ(topk[i].id, serial_topk[i].id) << ToString(placement);
      EXPECT_EQ(topk[i].statistic, serial_topk[i].statistic)
          << ToString(placement);
    }
  }
}

TEST_P(TupleKernelDeterminismTest,
       QuantileRanksBitIdenticalAcrossPlacementsAndTopologies) {
  const TiePolicy ties = GetParam();
  const auto serial = QueryEngine::Prepare(rel_);
  const std::vector<int> baseline = TupleQuantileRanks(*serial, 0.5, ties);

  for (const char* spec : kSyntheticTopologies) {
    ScopedPlanningTopology topo(spec);
    for (PlacementPolicy placement : kAllPlacements) {
      const auto prepared = QueryEngine::Prepare(rel_);
      KernelReport report;
      EXPECT_EQ(TupleQuantileRanks(*prepared, 0.5, ties, Par(8, placement),
                                   &report),
                baseline)
          << "topology=" << spec << " placement=" << ToString(placement);
    }
  }
}

TEST(GeneratedTupleRelationDeterminismTest, QuantileRanksBitIdentical) {
  // Realistic generator output: continuous scores (every run is a
  // singleton) and ~0.8N mostly-small exclusion rules, i.e. the wide-
  // support regime where the incremental convolve/deconvolve updates and
  // the shared absent-branch deconvolution carry the most float state.
  TupleGenConfig cfg;
  cfg.num_tuples = 17000;  // 2 chunks at the default grain
  cfg.seed = 7;
  const TupleRelation rel = GenerateTupleRelation(cfg);
  ASSERT_GE(TupleSweepChunkCount(rel), 2);

  // The baseline is the kernel-level raw sweep (its own sort, no entry
  // table): it runs the same grid with one worker, so the threads = 1 case
  // is covered without a third sweep, and the prepared path's memoized
  // entry-table state is what the comparison checks.
  std::vector<int> baseline(static_cast<size_t>(rel.size()), 0);
  ForEachTupleRankDistribution(
      rel, TiePolicy::kBreakByIndex,
      [&](int i, std::span<const double> dist) {
        baseline[static_cast<size_t>(i)] = QuantileFromPmf(dist, 0.5);
      });
  const auto prepared = QueryEngine::Prepare(rel);
  KernelReport report;
  EXPECT_EQ(TupleQuantileRanks(*prepared, 0.5, TiePolicy::kBreakByIndex,
                               Par(3), &report),
            baseline);
}

class AttrKernelDeterminismTest : public ::testing::TestWithParam<TiePolicy> {
 protected:
  AttrRelation MakeRelation() {
    AttrGenConfig cfg;
    cfg.num_tuples = 160;
    cfg.seed = 3;
    return GenerateAttrRelation(cfg);
  }
};

INSTANTIATE_TEST_SUITE_P(BothTiePolicies, AttrKernelDeterminismTest,
                         ::testing::Values(TiePolicy::kBreakByIndex,
                                           TiePolicy::kStrictGreater));

TEST_P(AttrKernelDeterminismTest, RankDistributionsBitIdentical) {
  const TiePolicy ties = GetParam();
  const AttrRelation rel = MakeRelation();
  const std::vector<internal::SortedPdf> pdfs = BuildSortedPdfs(rel);

  const std::vector<std::vector<double>> baseline =
      AttrRankDistributions(rel, ties);
  for (int threads : {1, 2, 8}) {
    KernelReport report;
    EXPECT_EQ(AttrRankDistributions(rel, pdfs, ties, Par(threads), &report),
              baseline)
        << "threads=" << threads;
  }
}

TEST_P(AttrKernelDeterminismTest, ShardedExpectedRanksBitIdentical) {
  const TiePolicy ties = GetParam();
  const AttrRelation rel = MakeRelation();
  // One-thread baseline over fresh prepared state, itself checked against
  // the independent O(N² s) pairwise evaluation of eq. (3).
  const std::vector<double> baseline =
      AttrExpectedRanks(*QueryEngine::Prepare(rel), ties);
  const std::vector<double> brute = AttrExpectedRanksBruteForce(rel, ties);
  ASSERT_EQ(baseline.size(), brute.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_NEAR(baseline[i], brute[i], 1e-9) << "tuple " << i;
  }
  const std::vector<RankedTuple> baseline_topk =
      AttrExpectedRankTopK(*QueryEngine::Prepare(rel), 15, ties);

  for (const char* spec : kSyntheticTopologies) {
    ScopedPlanningTopology topo(spec);
    for (PlacementPolicy placement : kAllPlacements) {
      for (int threads : {1, 2, 8}) {
        const auto prepared = QueryEngine::Prepare(rel);
        KernelReport report;
        EXPECT_EQ(
            AttrExpectedRanks(*prepared, ties, Par(threads, placement),
                              &report),
            baseline)
            << "topology=" << spec << " placement=" << ToString(placement)
            << " threads=" << threads;
        EXPECT_EQ(
            AttrExpectedRankTopK(*prepared, 15, ties, Par(threads, placement)),
            baseline_topk)
            << "topology=" << spec << " placement=" << ToString(placement);
      }
    }
  }
}

TEST_P(AttrKernelDeterminismTest, PreparedSemanticsBitIdentical) {
  const TiePolicy ties = GetParam();
  const AttrRelation rel = MakeRelation();
  constexpr int kK = 15;

  const auto serial = QueryEngine::Prepare(rel);
  const std::vector<int> base_ranks = AttrQuantileRanks(*serial, 0.25, ties);
  const std::vector<double> base_probs =
      AttrTopKProbabilities(*serial, kK, ties);
  const std::vector<int> base_winners = AttrUKRanks(*serial, kK, ties);

  for (int threads : {2, 8}) {
    const auto prepared = QueryEngine::Prepare(rel);
    KernelReport report;
    EXPECT_EQ(AttrQuantileRanks(*prepared, 0.25, ties, Par(threads), &report),
              base_ranks);
    EXPECT_EQ(AttrTopKProbabilities(*prepared, kK, ties, Par(threads), &report),
              base_probs);
    EXPECT_EQ(AttrUKRanks(*prepared, kK, ties, Par(threads), &report),
              base_winners);
  }
}

// Every semantics the engine can parallelize, on both models, end to end.
// kUTopk is omitted on the large tuple relation (its answer-set DP is
// serial, so thread-count independence is trivially exercised by
// query_engine_test) and on attribute relations of this size its world
// count is not enumerable.
std::vector<QueryRequest> EngineQueryMix() {
  std::vector<QueryRequest> queries;
  for (RankingSemantics s :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUKRanks,
        RankingSemantics::kPTk, RankingSemantics::kGlobalTopk,
        RankingSemantics::kExpectedScore}) {
    QueryRequest q;
    q.options.semantics = s;
    q.options.k = 20;
    q.options.phi = 0.3;
    q.options.threshold = 0.4;
    queries.push_back(q);
    q.options.ties = TiePolicy::kStrictGreater;
    queries.push_back(q);
  }
  return queries;
}

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const char* context) {
  EXPECT_EQ(got.status.code, want.status.code) << context;
  EXPECT_EQ(got.answer.ids, want.answer.ids) << context;
  EXPECT_EQ(got.answer.statistics, want.answer.statistics) << context;
}

TEST(EngineDeterminismTest, TupleAnswersBitIdenticalAcrossThreadCounts) {
  const TupleRelation rel = MakeClusteredTupleRelation(33000, 64, 200);
  const std::vector<QueryRequest> queries = EngineQueryMix();

  QueryEngine baseline(rel);
  std::vector<QueryResult> base;
  for (const QueryRequest& q : queries) base.push_back(baseline.Run(q));

  for (int threads : {2, 8}) {
    const QueryEngine engine(rel);  // fresh prepared state: no cache reuse
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest request = queries[i];
      request.parallelism = Par(threads);
      ExpectSameResult(engine.Run(request), base[i],
                       ToString(request.options.semantics));
    }
  }
}

TEST(EngineDeterminismTest, AttrAnswersBitIdenticalAcrossThreadCounts) {
  AttrGenConfig cfg;
  cfg.num_tuples = 160;
  cfg.seed = 3;
  const AttrRelation rel = GenerateAttrRelation(cfg);
  const std::vector<QueryRequest> queries = EngineQueryMix();

  QueryEngine baseline(rel);
  std::vector<QueryResult> base;
  for (const QueryRequest& q : queries) base.push_back(baseline.Run(q));

  for (int threads : {2, 8}) {
    const QueryEngine engine(rel);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest request = queries[i];
      request.parallelism = Par(threads);
      ExpectSameResult(engine.Run(request), base[i],
                       ToString(request.options.semantics));
    }
  }
}

TEST(EngineDeterminismTest, AnswersBitIdenticalAcrossPlacementPolicies) {
  const TupleRelation rel = MakeClusteredTupleRelation(33000, 64, 200);
  const std::vector<QueryRequest> queries = EngineQueryMix();

  QueryEngine baseline(rel);
  std::vector<QueryResult> base;
  for (const QueryRequest& q : queries) base.push_back(baseline.Run(q));

  ScopedPlanningTopology topo("0-3;4-7");
  for (PlacementPolicy placement : kAllPlacements) {
    const QueryEngine engine(rel);  // fresh prepared state per placement
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryRequest request = queries[i];
      request.parallelism = Par(8, placement);
      ExpectSameResult(engine.Run(request), base[i],
                       ToString(request.options.semantics));
    }
  }
}

TEST(EngineDeterminismTest, NodeLocalPlacementClampsAndReportsThreads) {
  ScopedPlanningTopology topo("0-3;4-7");  // widest node: 4 cores
  const TupleRelation rel = MakeClusteredTupleRelation(33000, 64, 200);
  const QueryEngine engine(rel);

  QueryRequest request;
  request.options.semantics = RankingSemantics::kExpectedRank;
  request.options.k = 10;
  request.parallelism = Par(8, PlacementPolicy::kNodeLocal);

  const QueryResult got = engine.Run(request);
  ASSERT_TRUE(got.status.ok());
  EXPECT_TRUE(got.stats.threads_clamped);
  EXPECT_LE(got.stats.threads_used, 4);
  EXPECT_GE(got.stats.nodes_used, 1);

  // The same query under kFlat is not clamped — and returns the same
  // answer from a fresh engine.
  QueryRequest flat = request;
  flat.parallelism = Par(8, PlacementPolicy::kFlat);
  const QueryResult flat_got = QueryEngine(rel).Run(flat);
  ASSERT_TRUE(flat_got.status.ok());
  EXPECT_FALSE(flat_got.stats.threads_clamped);
  EXPECT_EQ(flat_got.answer.ids, got.answer.ids);
  EXPECT_EQ(flat_got.answer.statistics, got.answer.statistics);
}

TEST(EngineDeterminismTest, RunBatchComposesWithIntraQueryParallelism) {
  const TupleRelation rel = MakeClusteredTupleRelation(33000, 64, 200);
  const std::vector<QueryRequest> queries = EngineQueryMix();

  QueryEngine baseline(rel);
  std::vector<QueryResult> base;
  for (const QueryRequest& q : queries) base.push_back(baseline.Run(q));

  // Intra-query chunks inside an inter-query batch.
  std::vector<QueryRequest> parallel = queries;
  for (QueryRequest& request : parallel) request.parallelism = Par(4);
  const QueryEngine engine(rel);
  const std::vector<QueryResult> got = engine.RunBatch(parallel, 4);
  ASSERT_EQ(got.size(), base.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(got[i], base[i],
                     ToString(queries[i].options.semantics));
  }
}

TEST(EngineDeterminismTest, StatsReportParallelExecutionThenCacheHit) {
  const TupleRelation rel = MakeClusteredTupleRelation(33000, 64, 200);
  const QueryEngine engine(rel);

  QueryRequest q;
  q.options.semantics = RankingSemantics::kQuantileRank;
  q.options.k = 10;
  q.options.phi = 0.5;
  q.parallelism = Par(8);

  const QueryResult cold = engine.Run(q);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.stats.reused_cache);
  // threads_used reports observed pool participation, which is
  // scheduler-dependent: on a single-core host the caller may drain all
  // chunks before a helper claims one, so >= 1 is all that is guaranteed.
  EXPECT_GE(cold.stats.threads_used, 1);
  EXPECT_LE(cold.stats.threads_used, 8);
  EXPECT_GT(cold.stats.arena_bytes, 0u);

  const QueryResult warm = engine.Run(q);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.stats.reused_cache);
  EXPECT_EQ(warm.stats.threads_used, 1);
  EXPECT_EQ(warm.stats.arena_bytes, 0u);
  EXPECT_EQ(warm.answer.ids, cold.answer.ids);
  EXPECT_EQ(warm.answer.statistics, cold.answer.statistics);
}

// --- Pruned quantile/median kernels -----------------------------------------
//
// The pruned top-k kernels must return the same bytes AND stop at the same
// stream position for every thread count, placement policy, planning
// topology and shard cap — the PR 3/8 contract extended to early
// termination: where the scan stops is a pure function of the data.

TEST(PrunedKernelDeterminismTest,
     TuplePruneBitIdenticalAcrossTopologiesAndPlacements) {
  const TupleRelation rel = MakeClusteredTupleRelation(33000, 64, 200);
  const auto baseline_prepared = QueryEngine::Prepare(rel);
  const std::vector<RankedTuple> unpruned =
      TupleQuantileRankTopK(*baseline_prepared, 10, 0.5,
                            TiePolicy::kBreakByIndex);
  const PrunedTopKResult base = TupleQuantileRankTopKPrune(
      *baseline_prepared, 10, 0.5, TiePolicy::kBreakByIndex);
  ASSERT_EQ(base.topk.size(), unpruned.size());
  for (size_t i = 0; i < unpruned.size(); ++i) {
    EXPECT_EQ(base.topk[i].id, unpruned[i].id);
    EXPECT_EQ(base.topk[i].statistic, unpruned[i].statistic);
  }

  std::vector<int> want_ids;
  std::vector<double> want_stats;
  for (const RankedTuple& rt : unpruned) {
    want_ids.push_back(rt.id);
    want_stats.push_back(rt.statistic);
  }

  for (const char* spec : kSyntheticTopologies) {
    ScopedPlanningTopology topo(spec);
    for (PlacementPolicy placement : kAllPlacements) {
      for (int threads : {1, 2, 8}) {
        const QueryEngine engine(rel);  // fresh prepared per topology
        QueryRequest request;
        request.options.semantics = RankingSemantics::kQuantileRank;
        request.options.k = 10;
        request.options.phi = 0.5;
        request.parallelism = Par(threads, placement);
        request.prune = true;
        const QueryResult got = engine.Run(request);
        ASSERT_TRUE(got.status.ok());
        EXPECT_EQ(got.answer.ids, want_ids)
            << spec << " threads=" << threads;
        EXPECT_EQ(got.answer.statistics, want_stats)
            << spec << " threads=" << threads;
        EXPECT_EQ(got.stats.prune_stop_position, base.prune_stop_position)
            << spec << " threads=" << threads;
        EXPECT_EQ(got.stats.tuples_scanned, base.tuples_scanned)
            << spec << " threads=" << threads;
      }
    }
  }
}

TEST(PrunedKernelDeterminismTest,
     AttrPruneBitIdenticalAcrossTopologiesAndPlacements) {
  const AttrRelation rel =
      testgen::ClusteredScoreAttrRelation(700, 9, 4, 33);
  const auto baseline_prepared = QueryEngine::Prepare(rel);
  const std::vector<RankedTuple> unpruned = AttrQuantileRankTopK(
      *baseline_prepared, 10, 0.5, TiePolicy::kBreakByIndex);
  const PrunedTopKResult base = AttrQuantileRankTopKPrune(
      *baseline_prepared, 10, 0.5, TiePolicy::kBreakByIndex);
  ASSERT_EQ(base.topk.size(), unpruned.size());

  for (const char* spec : kSyntheticTopologies) {
    ScopedPlanningTopology topo(spec);
    const auto prepared = QueryEngine::Prepare(rel);
    for (PlacementPolicy placement : kAllPlacements) {
      for (int threads : {1, 2, 8}) {
        KernelReport report;
        const PrunedTopKResult got = AttrQuantileRankTopKPrune(
            *prepared, 10, 0.5, TiePolicy::kBreakByIndex,
            Par(threads, placement), &report);
        EXPECT_EQ(got.prune_stop_position, base.prune_stop_position)
            << spec << " threads=" << threads;
        EXPECT_EQ(got.tuples_scanned, base.tuples_scanned)
            << spec << " threads=" << threads;
        ASSERT_EQ(got.topk.size(), unpruned.size());
        for (size_t i = 0; i < unpruned.size(); ++i) {
          EXPECT_EQ(got.topk[i].id, unpruned[i].id)
              << spec << " threads=" << threads << " pos " << i;
          EXPECT_EQ(got.topk[i].statistic, unpruned[i].statistic)
              << spec << " threads=" << threads << " pos " << i;
        }
      }
    }
  }
}

TEST(PrunedKernelDeterminismTest, PruneOnBlockedPreparationMatchesEager) {
  // Composition with the streaming builder: pruning over blocked-built
  // prepared state stops at the same position with the same answer as
  // over the eager state, for any block size.
  const TupleRelation rel = MakeClusteredTupleRelation(25000, 48, 150);
  const auto eager = QueryEngine::Prepare(rel);
  const PrunedTopKResult base =
      TupleQuantileRankTopKPrune(*eager, 10, 0.5, TiePolicy::kBreakByIndex);
  for (int block : {1024, 5000, 30000}) {
    PreparedTupleRelationBuilder builder;
    const testgen::TupleBlocks blocks = testgen::SplitIntoBlocks(rel, block);
    for (size_t b = 0; b < blocks.tuples.size(); ++b) {
      builder.AddBlock(blocks.tuples[b], blocks.rule_keys[b]);
    }
    const auto blocked = builder.Seal();
    const PrunedTopKResult got = TupleQuantileRankTopKPrune(
        *blocked, 10, 0.5, TiePolicy::kBreakByIndex);
    EXPECT_EQ(got.prune_stop_position, base.prune_stop_position)
        << "block=" << block;
    EXPECT_EQ(got.tuples_scanned, base.tuples_scanned) << "block=" << block;
    ASSERT_EQ(got.topk.size(), base.topk.size()) << "block=" << block;
    for (size_t i = 0; i < base.topk.size(); ++i) {
      EXPECT_EQ(got.topk[i].id, base.topk[i].id) << "block=" << block;
      EXPECT_EQ(got.topk[i].statistic, base.topk[i].statistic)
          << "block=" << block;
    }
  }
}

// Every tuple-level semantics QueryRequest::prune reaches answers
// bit-identically to its unpruned kernel (ids and statistics, EXPECT_EQ)
// over the scenario_gen families, both tie policies and the thread counts
// the unpruned kernel runs with; the pruned scan itself is serial, so its
// stop position must not move with the thread count either.
constexpr RankingSemantics kPrunedTupleSemantics[] = {
    RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
    RankingSemantics::kQuantileRank, RankingSemantics::kPTk,
    RankingSemantics::kGlobalTopk,   RankingSemantics::kUKRanks};

void ExpectEnginePruneMatches(const TupleRelation& rel, const char* family) {
  for (RankingSemantics semantics : kPrunedTupleSemantics) {
    for (TiePolicy ties :
         {TiePolicy::kStrictGreater, TiePolicy::kBreakByIndex}) {
      for (int k : {1, 10}) {
        long long stop = -2;
        for (int threads : {1, 4, 8}) {
          SCOPED_TRACE(::testing::Message()
                       << family << " " << ToString(semantics)
                       << " ties=" << static_cast<int>(ties) << " k=" << k
                       << " threads=" << threads);
          QueryRequest request = testing_util::Request(semantics, k, ties);
          request.options.phi = 0.75;
          request.options.threshold = 0.1;
          request.parallelism = Par(threads);
          const QueryStats stats =
              testing_util::ExpectPruneMatchesUnpruned(rel, request);
          if (stop != -2) {
            EXPECT_EQ(stats.prune_stop_position, stop);
          }
          stop = stats.prune_stop_position;
        }
      }
    }
  }
}

TEST(PrunedKernelDeterminismTest, EnginePruneMatchesUnprunedOnCorrelated) {
  for (Correlation corr : {Correlation::kIndependent, Correlation::kPositive,
                           Correlation::kNegative}) {
    ExpectEnginePruneMatches(
        testgen::CorrelatedTupleRelation(500, corr, 41), ToString(corr));
  }
}

TEST(PrunedKernelDeterminismTest, EnginePruneMatchesUnprunedOnRuleFamilies) {
  ExpectEnginePruneMatches(testgen::ClusteredScoreTupleRelation(600, 6, 43),
                           "clustered");
  ExpectEnginePruneMatches(testgen::AdversarialRuleTupleRelation(400, 5, 47),
                           "adversarial");
  ExpectEnginePruneMatches(testgen::WideRuleTupleRelation(800, 8, 53),
                           "wide-rule");
  ExpectEnginePruneMatches(
      testgen::BoundedSupportTupleRelation(1500, 16, 40, 59),
      "bounded-support");
}

TEST(SeededShardPlanTest, RankProbOverloadMatchesGatherAcrossCaps) {
  // The pre-gathered-probs overload the builder uses must emit the same
  // plan as the gathering form for every shard cap.
  const TupleRelation rel = MakeClusteredTupleRelation(33000, 64, 200);
  const auto prepared = QueryEngine::Prepare(rel);
  const std::vector<int>& order = prepared->rank_order();
  std::vector<double> rank_probs(order.size());
  for (size_t j = 0; j < order.size(); ++j) {
    rank_probs[j] = rel.tuple(order[j]).prob;
  }
  for (int max_shards : {0, 1, 4, 16}) {
    const internal::TupleShardPlan a = internal::BuildTupleShardPlan(
        rel, order, /*first_touch=*/false, max_shards);
    const internal::TupleShardPlan b = internal::BuildTupleShardPlan(
        rel, order, &rank_probs, /*first_touch=*/false, max_shards);
    EXPECT_EQ(a.num_rules, b.num_rules);
    ASSERT_EQ(a.shards.size(), b.shards.size()) << "cap=" << max_shards;
    for (size_t s = 0; s < a.shards.size(); ++s) {
      EXPECT_EQ(a.shards[s].begin, b.shards[s].begin) << "cap=" << max_shards;
      EXPECT_EQ(a.shards[s].end, b.shards[s].end) << "cap=" << max_shards;
      EXPECT_EQ(a.shards[s].home_node, b.shards[s].home_node)
          << "cap=" << max_shards;
      EXPECT_EQ(a.shards[s].entry_prefix, b.shards[s].entry_prefix)
          << "cap=" << max_shards;
      EXPECT_EQ(a.shards[s].entry_rule_mass, b.shards[s].entry_rule_mass)
          << "cap=" << max_shards;
      EXPECT_EQ(a.shards[s].order, b.shards[s].order) << "cap=" << max_shards;
      EXPECT_EQ(a.shards[s].pref, b.shards[s].pref) << "cap=" << max_shards;
    }
  }
}

}  // namespace
}  // namespace urank
