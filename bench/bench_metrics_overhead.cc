// Experiment O1: observability overhead on the serving path.
//
// The metrics registry and trace spans ride inside QueryEngine::Run, the
// DP kernels and ParallelFor, so their cost must be provably negligible.
// This harness times the N = 100k tuple expected-rank sweep (the paper's
// workhorse query) end to end — generate-free, prepare included — in two
// interleaved arms: instrumentation enabled (the default) and disabled at
// runtime via metrics::SetEnabled(false), which no-ops every mutation and
// is the closest runtime approximation of the URANK_METRICS=OFF build.
// The reported overhead is the median-over-reps ratio between the arms;
// the acceptance gate is < 2% in full mode.
//
// A micro section reports the raw hot-path costs (counter increment,
// histogram record, inactive span) for context; those numbers are printed
// but deliberately kept out of the JSON so the CI regression gate only
// matches the stable macro series.
//
// Flags:
//   --smoke        shrink the relation (~20k tuples) for CI smoke runs
//   --json=PATH    machine-readable results for tools/bench_runner.py
//                  (includes a "metrics" registry snapshot)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine/query_engine.h"
#include "core/engine/trace.h"
#include "core/query.h"
#include "gen/tuple_gen.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

namespace urank {
namespace {

constexpr int kReps = 9;  // per arm; interleaved, median reported

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// One cold expected-rank sweep: fresh prepared state (so the memoized
// statistic is recomputed), a top-10 query, then a top-100 re-ranking that
// hits the warmed cache — exercising the miss and hit paths every rep.
double OneRep(const TupleRelation& rel) {
  Timer timer;
  const QueryEngine engine(rel);
  QueryRequest q;
  q.options.semantics = RankingSemantics::kExpectedRank;
  q.options.k = 10;
  const QueryResult cold = engine.Run(q);
  q.options.k = 100;
  const QueryResult warm = engine.Run(q);
  // Consume the answers so the optimizer cannot drop the work.
  return cold.status.ok() && warm.status.ok() && !warm.answer.ids.empty()
             ? timer.ElapsedMs()
             : -1.0;
}

struct ArmResult {
  double median_ms = 0.0;
  std::vector<double> reps;
};

// Interleaved A/B: alternating reps cancel slow drift (thermal, cache,
// noisy neighbours) that back-to-back blocks would fold into one arm.
void RunArms(const TupleRelation& rel, ArmResult* enabled,
             ArmResult* disabled) {
  OneRep(rel);  // warm-up, discarded
  for (int rep = 0; rep < kReps; ++rep) {
    metrics::SetEnabled(true);
    enabled->reps.push_back(OneRep(rel));
    metrics::SetEnabled(false);
    disabled->reps.push_back(OneRep(rel));
  }
  metrics::SetEnabled(true);
  enabled->median_ms = Median(enabled->reps);
  disabled->median_ms = Median(disabled->reps);
}

// Raw hot-path costs, reported per operation. Loop counts are large
// enough that the per-call clock reads vanish.
void PrintMicroCosts() {
  constexpr long long kOps = 4000000;
  metrics::Registry registry;
  metrics::Counter& counter = registry.counter("urank_bench_micro_total");
  metrics::Histogram& hist = registry.histogram("urank_bench_micro_us");

  Table table("O1 micro: hot-path cost per operation (informational)",
              {"operation", "ns/op"});
  {
    Timer timer;
    for (long long i = 0; i < kOps; ++i) counter.Increment();
    table.AddRow({"counter increment",
                  FormatDouble(timer.ElapsedMs() * 1e6 / kOps, 2)});
  }
  {
    Timer timer;
    for (long long i = 0; i < kOps; ++i) {
      hist.Record(static_cast<double>(i & 1023));
    }
    table.AddRow({"histogram record",
                  FormatDouble(timer.ElapsedMs() * 1e6 / kOps, 2)});
  }
  {
    Timer timer;
    for (long long i = 0; i < kOps; ++i) {
      URANK_TRACE_SPAN("micro");  // no session active: one relaxed load
    }
    table.AddRow({"span, no session",
                  FormatDouble(timer.ElapsedMs() * 1e6 / kOps, 2)});
  }
  table.Print();
  std::printf("\n");
}

void WriteJson(const std::string& path, bool smoke, int n,
               const ArmResult& enabled, const ArmResult& disabled,
               double overhead_pct) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"harness\": \"bench_metrics_overhead\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", ResolveThreads(0));
  std::fprintf(f, "  \"overhead_pct\": %.3f,\n", overhead_pct);
  std::fprintf(f, "  \"benchmarks\": [\n");
  std::fprintf(f,
               "    {\"kernel\": \"expected_rank_metrics_on\", \"n\": %d, "
               "\"threads\": 1, \"simd_target\": \"%s\", "
               "\"wall_ms\": %.3f},\n",
               n, ToString(ActiveSimdTarget()), enabled.median_ms);
  std::fprintf(f,
               "    {\"kernel\": \"expected_rank_metrics_off\", \"n\": %d, "
               "\"threads\": 1, \"simd_target\": \"%s\", "
               "\"wall_ms\": %.3f}\n",
               n, ToString(ActiveSimdTarget()), disabled.median_ms);
  std::fprintf(f, "  ],\n");
  // The registry snapshot rides along so tools/bench_runner.py can export
  // it (--metrics-out) and CI can archive it as an artifact.
  std::fprintf(f, "  \"metrics\": %s\n",
               metrics::Registry::Global().RenderJsonSnapshot().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int RunHarness(bool smoke, const std::string& json_path) {
  const int n = smoke ? 20000 : 100000;
  TupleGenConfig config;
  config.num_tuples = n;
  config.seed = 31;
  const TupleRelation rel = GenerateTupleRelation(config);

  ArmResult enabled;
  ArmResult disabled;
  RunArms(rel, &enabled, &disabled);

  const double overhead_pct =
      disabled.median_ms > 0.0
          ? (enabled.median_ms / disabled.median_ms - 1.0) * 100.0
          : 0.0;

  Table table("O1: expected-rank sweep, metrics on vs off (N = " +
                  FormatInt(n) + ", median of " + FormatInt(kReps) +
                  " interleaved reps)",
              {"arm", "median ms", "overhead"});
  table.AddRow({"metrics disabled", FormatDouble(disabled.median_ms, 3),
                "baseline"});
  table.AddRow({"metrics enabled", FormatDouble(enabled.median_ms, 3),
                FormatDouble(overhead_pct, 2) + "%"});
  table.Print();
  std::printf("\n");

  PrintMicroCosts();

  const bool compiled_in = metrics::Enabled();
  std::printf("instrumentation compiled %s; target: overhead < 2%% -> %s\n",
              compiled_in ? "in" : "out (URANK_METRICS=OFF)",
              overhead_pct < 2.0 ? "met" : "NOT met");
  if (!json_path.empty()) {
    WriteJson(json_path, smoke, n, enabled, disabled, overhead_pct);
  }
  // Gate only in full mode: smoke reps on loaded CI runners are too short
  // to separate sub-percent effects from scheduler noise.
  return (!smoke && overhead_pct >= 2.0) ? 1 : 0;
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
  return urank::RunHarness(smoke, json_path);
}
