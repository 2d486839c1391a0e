// Experiment E19: QueryEngine batch throughput — eight mixed-semantics
// queries against one N = 10k tuple-level relation, evaluated (a) one
// query at a time, each preparing the relation from scratch
// (QueryEngine::Prepare + Run per query, so every statistic is recomputed),
// and (b) as one QueryEngine::RunBatch over shared prepared state. The
// series name of (a), engine_facade_sequential, is kept from when a
// one-shot facade function did that per-query preparation.
//
// The batch wins twice: queries that rank by the same memoized statistic
// (the three quantile queries collapse to two distribution sweeps; the
// k=10/k=100 pairs collapse to one) compute it once, and independent
// queries run on parallel workers. The acceptance target for this harness
// is a >= 2x end-to-end speedup.
//
// Flags:
//   --smoke        shrink the relations for CI smoke runs
//   --json=PATH    machine-readable results for tools/bench_runner.py

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/query.h"
#include "gen/tuple_gen.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

constexpr int kThreads = 8;

// One machine-readable series point, keyed by (kernel, n, threads,
// simd_target) in tools/bench_runner.py --compare.
struct Measurement {
  std::string kernel;
  int n = 0;
  int threads = 0;
  double wall_ms = 0.0;
};

std::vector<Measurement>& Collected() {
  static std::vector<Measurement> rows;
  return rows;
}

void Collect(const std::string& kernel, int n, int threads, double wall_ms) {
  Collected().push_back({kernel, n, threads, wall_ms});
}

QueryRequest MakeQuery(RankingSemantics semantics, int k, double phi = 0.5) {
  QueryRequest q;
  q.options.semantics = semantics;
  q.options.k = k;
  q.options.phi = phi;
  q.options.threshold = 0.1;
  return q;
}

// The eight-query batch, shaped like a dashboard refresh: two expected-rank
// selections (one memoized sweep), three median/quantile queries at
// phi = 0.5 (one rank-distribution sweep shared by all three), PT-k and
// Global-Topk at the same k (one top-k-probability sweep shared by both),
// and a U-Topk. Preparing per query recomputes every one of those sweeps
// per call; the shared engine runs the two heavy sweeps once each, on
// parallel workers.
std::vector<QueryRequest> MakeBatch() {
  return {
      MakeQuery(RankingSemantics::kExpectedRank, 10),
      MakeQuery(RankingSemantics::kExpectedRank, 100),
      MakeQuery(RankingSemantics::kMedianRank, 10),
      MakeQuery(RankingSemantics::kQuantileRank, 100, 0.5),
      MakeQuery(RankingSemantics::kQuantileRank, 50, 0.5),
      MakeQuery(RankingSemantics::kPTk, 10),
      MakeQuery(RankingSemantics::kGlobalTopk, 10),
      MakeQuery(RankingSemantics::kUTopk, 10),
  };
}

void RunExperiment(int kN) {
  TupleGenConfig config;  // paper baseline: N=10k, 30% multi-tuple rules
  config.num_tuples = kN;
  config.seed = 23;
  const TupleRelation rel = GenerateTupleRelation(config);
  const std::vector<QueryRequest> batch = MakeBatch();

  // (a) One query at a time: every query prepares from scratch.
  Timer facade_timer;
  std::vector<RankingAnswer> facade_answers;
  facade_answers.reserve(batch.size());
  for (const QueryRequest& q : batch) {
    const QueryEngine one_shot(QueryEngine::Prepare(rel));
    facade_answers.push_back(one_shot.Run(q).answer);
  }
  const double facade_ms = facade_timer.ElapsedMs();

  // (b) Engine: prepare once, run the batch on a worker pool. The timer
  // covers preparation, so the comparison is end-to-end.
  Timer engine_timer;
  const QueryEngine engine(rel);
  const std::vector<QueryResult> results = engine.RunBatch(batch, kThreads);
  const double engine_ms = engine_timer.ElapsedMs();

  int mismatches = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (results[i].answer.ids != facade_answers[i].ids) ++mismatches;
  }

  Collect("engine_facade_sequential", kN, 1, facade_ms);
  Collect("engine_batch", kN, kThreads, engine_ms);

  Table per_query("E19a: per-query engine statistics (N = " + FormatInt(kN) +
                      ", 8 worker threads)",
                  {"semantics", "k", "wall ms", "cache hit", "dp cells",
                   "pruned"});
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryStats& s = results[i].stats;
    per_query.AddRow({ToString(batch[i].options.semantics),
                      FormatInt(batch[i].options.k),
                      FormatDouble(s.wall_ms, 3),
                      s.reused_cache ? "yes" : "no", FormatInt(s.dp_cells),
                      FormatInt(s.tuples_pruned)});
  }
  per_query.Print();
  std::printf("\n");

  const double speedup = engine_ms > 0.0 ? facade_ms / engine_ms : 0.0;
  Table summary("E19b: prepare-per-query vs engine-batch end to end",
                {"mode", "total ms", "speedup", "answers match"});
  summary.AddRow({"prepare-per-query x8", FormatDouble(facade_ms, 2), "1.00",
                  "-"});
  summary.AddRow({"engine batch", FormatDouble(engine_ms, 2),
                  FormatDouble(speedup, 2), mismatches == 0 ? "yes" : "NO"});
  summary.Print();
  std::printf("\ntarget: speedup >= 2x -> %s\n",
              speedup >= 2.0 ? "met" : "NOT met");
}

// E19c: inter-query (RunBatch workers) vs intra-query (ParallelismOptions
// chunks) parallelism, alone and combined, over one larger relation whose
// sweeps span several chunks. Every configuration re-prepares from scratch
// — otherwise the second run would be served from the statistic cache —
// and every configuration's answers must match the serial baseline
// exactly.
void RunScalingGrid(int kGridN) {
  TupleGenConfig config;
  config.num_tuples = kGridN;
  config.seed = 29;
  const TupleRelation rel = GenerateTupleRelation(config);
  const std::vector<QueryRequest> batch = MakeBatch();

  struct GridPoint {
    int batch_threads;
    int intra_threads;
  };
  const GridPoint grid[] = {{1, 1}, {8, 1}, {1, 8}, {8, 8}};

  std::vector<QueryResult> baseline;
  double baseline_ms = 0.0;
  Table table("E19c: inter vs intra-query scaling (N = " +
                  FormatInt(kGridN) + ", fresh prepare per config)",
              {"batch threads", "intra threads", "total ms", "speedup",
               "answers match"});
  for (const GridPoint& point : grid) {
    std::vector<QueryRequest> requests = batch;
    for (QueryRequest& request : requests) {
      request.parallelism.threads = point.intra_threads;
    }
    Timer timer;
    const QueryEngine engine(rel);
    const std::vector<QueryResult> results =
        engine.RunBatch(requests, point.batch_threads);
    const double ms = timer.ElapsedMs();

    bool match = true;
    if (baseline.empty()) {
      baseline = results;
      baseline_ms = ms;
    } else {
      for (size_t i = 0; i < results.size(); ++i) {
        match = match && results[i].answer.ids == baseline[i].answer.ids &&
                results[i].answer.statistics == baseline[i].answer.statistics;
      }
    }
    Collect("engine_grid_intra" + FormatInt(point.intra_threads), kGridN,
            point.batch_threads, ms);
    table.AddRow({FormatInt(point.batch_threads),
                  FormatInt(point.intra_threads), FormatDouble(ms, 2),
                  FormatDouble(ms > 0.0 ? baseline_ms / ms : 0.0, 2),
                  match ? "yes" : "NO"});
  }
  table.Print();
}

void WriteJson(const std::string& path, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  const std::vector<Measurement>& rows = Collected();
  std::fprintf(f, "{\n  \"harness\": \"bench_engine_batch\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", ResolveThreads(0));
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"n\": %d, \"threads\": %d, "
                 "\"simd_target\": \"%s\", \"wall_ms\": %.3f}%s\n",
                 m.kernel.c_str(), m.n, m.threads,
                 ToString(ActiveSimdTarget()), m.wall_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace urank

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  // Smoke sizes keep every sweep multi-chunk (several 8192-item chunks)
  // while fitting a CI time budget.
  urank::RunExperiment(smoke ? 4000 : 10000);
  std::printf("\n");
  urank::RunScalingGrid(smoke ? 12000 : 24000);
  if (!json_path.empty()) urank::WriteJson(json_path, smoke);
  return 0;
}
