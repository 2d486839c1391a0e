// QueryEngine tests: shared-engine vs prepare-per-query equivalence for
// every semantics on both uncertainty models, the recoverable validation
// taxonomy, RunBatch determinism across thread counts, and cache-reuse
// statistics.

#include "core/engine/query_engine.h"

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "gtest/gtest.h"
#include "model/possible_worlds.h"
#include "util/parallel.h"

namespace urank {
namespace {

// Same generator settings as consistency_fuzz_test.cc: overlapping values
// and multi-tuple rules stress every DP path.
AttrRelation MakeAttr(int n, uint64_t seed) {
  AttrGenConfig config;
  config.num_tuples = n;
  config.pdf_size = 4;
  config.value_spread = 100.0;
  config.seed = seed;
  return GenerateAttrRelation(config);
}

TupleRelation MakeTuple(int n, uint64_t seed) {
  TupleGenConfig config;
  config.num_tuples = n;
  config.multi_rule_fraction = 0.5;
  config.max_rule_size = 4;
  config.prob_lo = 0.05;
  config.seed = seed;
  return GenerateTupleRelation(config);
}

// One query per semantics; k/phi/threshold chosen to produce non-trivial
// answers on relations of a few dozen tuples.
std::vector<QueryRequest> AllSemanticsQueries(TiePolicy ties) {
  std::vector<QueryRequest> queries;
  for (RankingSemantics semantics :
       {RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
        RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
        RankingSemantics::kUKRanks, RankingSemantics::kPTk,
        RankingSemantics::kGlobalTopk, RankingSemantics::kExpectedScore}) {
    QueryRequest q;
    q.options.semantics = semantics;
    q.options.k = 5;
    q.options.phi = 0.3;
    q.options.threshold = 0.1;
    q.options.ties = ties;
    queries.push_back(q);
  }
  return queries;
}

void ExpectSameAnswer(const RankingAnswer& got, const RankingAnswer& want,
                      const char* label) {
  ASSERT_EQ(got.ids, want.ids) << label;
  ASSERT_EQ(got.statistics.size(), want.statistics.size()) << label;
  for (size_t i = 0; i < want.statistics.size(); ++i) {
    // A warm engine and a freshly prepared one run the same arithmetic in
    // the same order, so equality is exact, not approximate.
    EXPECT_EQ(got.statistics[i], want.statistics[i])
        << label << " statistic " << i;
  }
}

// What a one-shot query costs: prepare the relation, run one request. The
// "facade" tests below diff a long-lived engine, whose statistic memo is
// shared across every query, against this per-query preparation.
template <typename Relation>
RankingAnswer RunFresh(const Relation& rel, const QueryRequest& request) {
  QueryResult result = QueryEngine(rel).Run(request);
  EXPECT_TRUE(result.status.ok()) << result.status.message;
  return std::move(result.answer);
}

class QueryEngineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryEngineEquivalence, AttrMatchesFacadeForEverySemantics) {
  // Eight tuples with pdf size four: 4^8 = 65536 worlds, small enough for
  // the U-Topk enumeration to be part of the sweep.
  const AttrRelation rel = MakeAttr(8, GetParam());
  const QueryEngine engine(rel);
  for (TiePolicy ties :
       {TiePolicy::kBreakByIndex, TiePolicy::kStrictGreater}) {
    for (const QueryRequest& q : AllSemanticsQueries(ties)) {
      const QueryResult result = engine.Run(q);
      ASSERT_TRUE(result.status.ok()) << ToString(q.options.semantics);
      ExpectSameAnswer(result.answer, RunFresh(rel, q),
                       ToString(q.options.semantics));
    }
  }
}

TEST_P(QueryEngineEquivalence, TupleMatchesFacadeForEverySemantics) {
  const TupleRelation rel = MakeTuple(60, GetParam());
  const QueryEngine engine(rel);
  for (TiePolicy ties :
       {TiePolicy::kBreakByIndex, TiePolicy::kStrictGreater}) {
    for (const QueryRequest& q : AllSemanticsQueries(ties)) {
      const QueryResult result = engine.Run(q);
      ASSERT_TRUE(result.status.ok()) << ToString(q.options.semantics);
      ExpectSameAnswer(result.answer, RunFresh(rel, q),
                       ToString(q.options.semantics));
    }
  }
}

TEST_P(QueryEngineEquivalence, RunBatchIsDeterministicAcrossThreadCounts) {
  const TupleRelation rel = MakeTuple(120, GetParam());
  const QueryEngine engine(rel);
  // Two tie policies' worth of queries, twice over: repeated queries make
  // the memoized statistics contended across workers.
  std::vector<QueryRequest> batch =
      AllSemanticsQueries(TiePolicy::kBreakByIndex);
  const auto more = AllSemanticsQueries(TiePolicy::kStrictGreater);
  batch.insert(batch.end(), more.begin(), more.end());
  batch.insert(batch.end(), batch.begin(), batch.end());

  std::vector<QueryResult> baseline;
  baseline.reserve(batch.size());
  for (const QueryRequest& q : batch) baseline.push_back(engine.Run(q));

  for (int threads : {1, 2, 5, 8}) {
    const std::vector<QueryResult> results = engine.RunBatch(batch, threads);
    ASSERT_EQ(results.size(), batch.size()) << "threads=" << threads;
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(results[i].status.ok());
      ExpectSameAnswer(results[i].answer, baseline[i].answer,
                       ToString(batch[i].options.semantics));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryEngineEquivalence,
                         ::testing::Values(uint64_t{101}, uint64_t{202},
                                           uint64_t{303}));

TEST(QueryEngineValidation, RejectsBadParametersRecoverably) {
  const QueryEngine engine(MakeTuple(20, 7));

  QueryRequest q;
  q.options.semantics = RankingSemantics::kExpectedRank;
  q.options.k = 0;
  QueryResult result = engine.Run(q);
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidK);
  EXPECT_NE(result.status.message.find("k must be >= 1"), std::string::npos);
  EXPECT_TRUE(result.answer.ids.empty());

  q = {};
  q.options.semantics = RankingSemantics::kQuantileRank;
  q.options.phi = 1.5;
  result = engine.Run(q);
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidPhi);
  EXPECT_NE(result.status.message.find("phi"), std::string::npos);

  // phi is only a quantile parameter: out-of-range values are ignored
  // elsewhere.
  q.options.semantics = RankingSemantics::kExpectedRank;
  EXPECT_TRUE(engine.Run(q).status.ok());

  q = {};
  q.options.semantics = RankingSemantics::kPTk;
  q.options.threshold = 0.0;
  result = engine.Run(q);
  EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidThreshold);
  EXPECT_NE(result.status.message.find("threshold"), std::string::npos);

  q = {};
  EXPECT_EQ(engine.Validate(q.options).code, QueryStatusCode::kOk);
  EXPECT_TRUE(engine.Validate(q.options).message.empty());
}

TEST(QueryEngineValidation, RejectsKAboveRelationSize) {
  // k = N is the largest top-k a relation can fill; k = N + 1 is rejected
  // for every semantics on both models before any k-sized table is built.
  const int n = 12;
  const QueryEngine tuple_engine(MakeTuple(n, 53));
  const QueryEngine attr_engine(MakeAttr(6, 59));
  const RankingSemantics all[] = {
      RankingSemantics::kExpectedRank, RankingSemantics::kMedianRank,
      RankingSemantics::kQuantileRank, RankingSemantics::kUTopk,
      RankingSemantics::kUKRanks,      RankingSemantics::kPTk,
      RankingSemantics::kGlobalTopk,   RankingSemantics::kExpectedScore,
  };
  for (RankingSemantics semantics : all) {
    for (const auto& [engine, size] :
         {std::pair<const QueryEngine*, int>{&tuple_engine, n},
          std::pair<const QueryEngine*, int>{&attr_engine, 6}}) {
      QueryRequest q;
      q.options.semantics = semantics;
      q.options.threshold = 0.1;
      q.options.k = size;
      EXPECT_TRUE(engine->Run(q).status.ok()) << ToString(semantics);
      q.options.k = size + 1;
      const QueryResult result = engine->Run(q);
      EXPECT_EQ(result.status.code, QueryStatusCode::kInvalidK)
          << ToString(semantics);
      EXPECT_NE(result.status.message.find("k must be <= N"),
                std::string::npos)
          << result.status.message;
      EXPECT_TRUE(result.answer.ids.empty());
      EXPECT_EQ(engine->Validate(q.options).code, QueryStatusCode::kInvalidK);
    }
  }
  // The wire accepts any int: the largest one must come back as a status,
  // not as an O(N·k) allocation.
  QueryRequest huge;
  huge.options.semantics = RankingSemantics::kUTopk;
  huge.options.k = 2147483647;
  EXPECT_EQ(tuple_engine.Run(huge).status.code, QueryStatusCode::kInvalidK);
}

TEST(QueryEngineValidation, RejectsNonEnumerableUTopkWorldCount) {
  // 4^40 worlds saturates NumWorlds far past the enumeration limit.
  const AttrRelation rel = MakeAttr(40, 11);
  ASSERT_GT(rel.NumWorlds(), kMaxEnumerableWorlds);
  const QueryEngine engine(rel);

  QueryRequest q;
  q.options.semantics = RankingSemantics::kUTopk;
  q.options.k = 3;
  const QueryResult result = engine.Run(q);
  EXPECT_EQ(result.status.code, QueryStatusCode::kWorldCountNotEnumerable);
  EXPECT_FALSE(result.status.ok());

  // Every other semantics still runs on the same engine.
  q.options.semantics = RankingSemantics::kExpectedRank;
  EXPECT_TRUE(engine.Run(q).status.ok());
}

TEST(QueryEngineStats, ReportsCacheReuseOnRepeatedStatistics) {
  const QueryEngine engine(MakeTuple(50, 13));

  QueryRequest q;
  q.options.semantics = RankingSemantics::kExpectedRank;
  q.options.k = 5;
  const QueryResult cold = engine.Run(q);
  EXPECT_FALSE(cold.stats.reused_cache);
  EXPECT_GT(cold.stats.dp_cells, 0);
  EXPECT_EQ(cold.stats.tuples_pruned, 0);

  // A different k ranks by the same memoized expected-rank vector.
  q.options.k = 20;
  const QueryResult warm = engine.Run(q);
  EXPECT_TRUE(warm.stats.reused_cache);
  EXPECT_EQ(warm.stats.dp_cells, 0);
  EXPECT_EQ(warm.stats.tuples_pruned, 50);

  // The median is the phi = 0.5 quantile: the two semantics share a cache
  // entry.
  q = {};
  q.options.semantics = RankingSemantics::kMedianRank;
  EXPECT_FALSE(engine.Run(q).stats.reused_cache);
  q.options.semantics = RankingSemantics::kQuantileRank;
  q.options.phi = 0.5;
  EXPECT_TRUE(engine.Run(q).stats.reused_cache);
  q.options.phi = 0.25;
  EXPECT_FALSE(engine.Run(q).stats.reused_cache);
}

TEST(QueryEngineStats, TinyRelationReportsOneThreadEvenWhenParallelismAsked) {
  // min_parallel_cells suppresses the pool for tiny inputs, and
  // threads_used reports threads that actually participated — not the
  // requested ParallelismOptions — so a tiny N must report exactly 1.
  const QueryEngine engine(MakeTuple(40, 23));

  QueryRequest q;
  q.options.semantics = RankingSemantics::kQuantileRank;
  q.options.k = 5;
  q.options.phi = 0.5;
  q.parallelism.threads = 8;
  const QueryResult cold = engine.Run(q);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.stats.reused_cache);
  EXPECT_EQ(cold.stats.threads_used, 1);
}

TEST(QueryEngineStats, BatchComputesContendedStatisticExactlyOnce) {
  const auto prepared = QueryEngine::Prepare(MakeTuple(80, 17));
  const QueryEngine engine(prepared);

  QueryRequest q;
  q.options.semantics = RankingSemantics::kExpectedRank;
  q.options.k = 10;
  const std::vector<QueryRequest> batch(8, q);
  const std::vector<QueryResult> results = engine.RunBatch(batch, 8);
  ASSERT_EQ(results.size(), batch.size());
  for (const QueryResult& r : results) EXPECT_TRUE(r.status.ok());
  // Single-flight memoization: eight concurrent queries over one shared
  // statistic trigger exactly one computation.
  EXPECT_EQ(prepared->cache_misses(), 1);
  EXPECT_EQ(prepared->cache_hits(), 7);
}

TEST(QueryEngineSparseIds, HugeTupleIdsUseNoPositionalArray) {
  // Regression: one-shot queries used to build a position array indexed by
  // the maximum id, so a single id near 10^9 allocated gigabytes. The id
  // index is now a hash map on both models.
  const TupleRelation rel({{1000000000, 30.0, 0.6},
                           {3, 20.0, 0.5},
                           {7, 10.0, 0.4}},
                          {{0}, {1}, {2}});
  const QueryEngine engine(rel);
  EXPECT_EQ(engine.tuple()->PositionOfId(1000000000), 0);
  EXPECT_EQ(engine.tuple()->PositionOfId(3), 1);
  EXPECT_EQ(engine.tuple()->PositionOfId(42), -1);

  QueryRequest q;
  q.options.semantics = RankingSemantics::kGlobalTopk;
  q.options.k = 2;
  const QueryResult result = engine.Run(q);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.answer.ids.size(), 2u);
  ASSERT_EQ(result.answer.statistics.size(), 2u);
  for (double p : result.answer.statistics) EXPECT_GT(p, 0.0);

  // A freshly prepared one-shot query inherits the fix.
  EXPECT_EQ(RunFresh(rel, q).ids, result.answer.ids);
}

TEST(QueryEngineBatch, EmptyBatchAndThreadDefaultsAreSafe) {
  const QueryEngine engine(MakeTuple(10, 19));
  EXPECT_TRUE(engine.RunBatch(std::vector<QueryRequest>{}, 0).empty());
  EXPECT_TRUE(engine.RunBatch(std::vector<QueryRequest>{}, 4).empty());

  const QueryRequest q;
  const auto results = engine.RunBatch({q, q, q}, 0);  // hardware default
  ASSERT_EQ(results.size(), 3u);
  for (const QueryResult& r : results) EXPECT_TRUE(r.status.ok());
}

// --- The QueryRequest surface --------------------------------------------

TEST(QueryRequestSurface, PerRequestParallelismReplacesEngineSideChannel) {
  // Two requests with different parallelism: results must be bit-identical
  // (determinism contract), and parallelism travels with the request, not
  // with the engine.
  const QueryEngine engine(MakeTuple(20000, 37));

  QueryRequest serial;
  serial.options.semantics = RankingSemantics::kExpectedRank;
  serial.options.k = 25;
  serial.parallelism.threads = 1;
  serial.parallelism.min_parallel_cells = 1;

  QueryRequest parallel = serial;
  parallel.parallelism.threads = 4;

  const QueryResult serial_result = engine.Run(serial);
  // Fresh engine so the second run recomputes rather than hitting the
  // statistic memo.
  const QueryEngine engine2(MakeTuple(20000, 37));
  const QueryResult parallel_result = engine2.Run(parallel);
  ASSERT_TRUE(serial_result.status.ok());
  ASSERT_TRUE(parallel_result.status.ok());
  EXPECT_EQ(serial_result.answer.ids, parallel_result.answer.ids);
  EXPECT_EQ(serial_result.answer.statistics,
            parallel_result.answer.statistics);
  // threads_used reports how many slots actually grabbed a chunk, which
  // on a small machine can legitimately stay 1 even with a 4-thread
  // budget — so assert the budget bound, not a minimum.
  EXPECT_EQ(serial_result.stats.threads_used, 1);
  EXPECT_LE(parallel_result.stats.threads_used, 4);
}

TEST(QueryRequestSurface, ServeFieldsPassThroughWithoutAffectingExecution) {
  // deadline_ms and cache_mode are serving-layer concerns: the in-process
  // Run must ignore them (never shed, never consult a result cache).
  const QueryEngine engine(MakeTuple(30, 41));
  QueryRequest request;
  request.options.k = 5;
  request.deadline_ms = 1e-9;  // would shed instantly in urankd
  request.cache_mode = CacheMode::kBypass;
  const QueryResult result = engine.Run(request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.answer.ids.size(), 5u);
}

TEST(QueryRequestSurface, ValidationErrorsSurfaceThroughRequestRun) {
  const QueryEngine engine(MakeTuple(10, 47));
  QueryRequest request;
  request.options.k = 0;
  EXPECT_EQ(engine.Run(request).status.code, QueryStatusCode::kInvalidK);
  request.options.k = 5;
  request.options.semantics = RankingSemantics::kQuantileRank;
  request.options.phi = 1.5;
  EXPECT_EQ(engine.Run(request).status.code, QueryStatusCode::kInvalidPhi);
}

// --- Attribute-level kernels on every core --------------------------------

// The attribute rank-distribution DP costs O(s N^2) per tuple, so the
// default cell gate must fan N = 1000 (10^6 cells) out over the pool.
class QueryEngineParallelAttr
    : public ::testing::TestWithParam<RankingSemantics> {
 protected:
  static const AttrRelation& Relation() {
    static const AttrRelation rel = [] {
      AttrGenConfig config;
      config.num_tuples = 1000;
      config.pdf_size = 5;
      config.seed = 71;
      return GenerateAttrRelation(config);
    }();
    return rel;
  }

  // A fresh engine per run, so every run computes its statistic cold.
  static QueryResult RunCold(int threads) {
    const QueryEngine engine(Relation());
    QueryRequest q;
    q.options.semantics = GetParam();
    q.options.k = 10;
    q.options.phi = 0.9;
    q.options.threshold = 0.1;
    q.prune = true;
    q.parallelism.threads = threads;
    return engine.Run(q);
  }
};

TEST_P(QueryEngineParallelAttr, DefaultGateUsesCoresAndMatchesSerial) {
  const QueryResult serial = RunCold(1);
  const QueryResult parallel = RunCold(4);
  ASSERT_TRUE(serial.status.ok());
  ASSERT_TRUE(parallel.status.ok());
  EXPECT_EQ(serial.answer.ids, parallel.answer.ids);
  EXPECT_EQ(serial.answer.statistics, parallel.answer.statistics);
  EXPECT_EQ(serial.stats.dp_cells, parallel.stats.dp_cells);
  EXPECT_EQ(serial.stats.tuples_scanned, parallel.stats.tuples_scanned);
  EXPECT_EQ(serial.stats.prune_stop_position,
            parallel.stats.prune_stop_position);
  EXPECT_EQ(serial.stats.threads_used, 1);
  EXPECT_LE(parallel.stats.threads_used, 4);
  if (ResolveThreads(0) < 2) {
    GTEST_SKIP() << "one allowed core: the pool cannot show a second worker";
  }
  EXPECT_GT(parallel.stats.threads_used, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AttrN1000, QueryEngineParallelAttr,
    ::testing::Values(RankingSemantics::kMedianRank,
                      RankingSemantics::kQuantileRank,
                      RankingSemantics::kUKRanks, RankingSemantics::kPTk),
    [](const ::testing::TestParamInfo<RankingSemantics>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace urank
