// Experiment M1: million-tuple scalability (BENCH_8).
//
// Two questions, both at N = 1M in full mode:
//
//   * How much does the pruned quantile/median-rank top-k save over the
//     unpruned kernels, and is the answer still bit-identical for every
//     thread count and placement? The tuple series runs the unpruned
//     prepared kernel across threads {1, 2, 8} x placements {flat,
//     node_local, spread} and the serial pruned sweep once; the attr
//     series runs the pruned kernel itself across the same grid (its
//     per-block rank DPs parallelize; the bound bookkeeping and heap are
//     serial in stream order). Every row is fingerprinted and any bit
//     difference fails the harness.
//
//   * Does blocked streaming preparation bound the preparation footprint?
//     The RSS series prepares the same relation monolithically
//     (materialize everything, one eager Prepare) and through
//     PreparedTupleRelationBuilder fed generator-produced 64k blocks, and
//     reports each preparation's peak-RSS delta (VmHWM reset via
//     /proc/self/clear_refs where the kernel allows it; the VmRSS
//     fallback under-reports transient peaks but keeps the series
//     ordered). Both preparations must agree bit-for-bit on the pruned
//     answer and its stop position.
//
// Flags:
//   --smoke        shrink every series for CI smoke runs
//   --nightly      reduced-N identity sweep (between smoke and full) for
//                  the scheduled two-node-topology CI job; like every
//                  mode, exit is nonzero on any fingerprint mismatch
//   --json=PATH    machine-readable results for tools/bench_runner
//                  (includes a "metrics" registry snapshot)

#include <malloc.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/scenario_gen.h"
#include "core/engine/prepared_builder.h"
#include "core/engine/query_engine.h"
#include "core/quantile_rank.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/topology.h"

namespace urank {
namespace {

const int kThreadCounts[] = {1, 2, 8};
const PlacementPolicy kPlacements[] = {PlacementPolicy::kFlat,
                                       PlacementPolicy::kNodeLocal,
                                       PlacementPolicy::kSpread};
constexpr int kTopK = 10;
constexpr double kPhi = 0.5;

struct Measurement {
  std::string kernel;
  int n = 0;
  int threads = 0;
  double wall_ms = 0.0;
  double speedup_vs_unpruned = 0.0;  // serial unpruned / this row
  long long tuples_scanned = 0;      // pruned rows only (0 otherwise)
  long long rss_delta_kb = -1;       // RSS series only
  bool identical = true;             // vs the series' reference answer
  const char* simd_target = "scalar";
};

ParallelismOptions Par(int threads, PlacementPolicy placement) {
  ParallelismOptions par;
  par.threads = threads;
  par.min_parallel_cells = 1;
  par.placement = placement;
  return par;
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t bits) {
  return h ^ (bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::uint64_t TopKFingerprint(const std::vector<RankedTuple>& topk) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull + topk.size();
  for (const RankedTuple& r : topk) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.statistic, sizeof(bits));
    h = Mix(Mix(h, static_cast<std::uint64_t>(r.id)), bits);
  }
  return h;
}

Measurement Row(const std::string& kernel, int n, int threads,
                double wall_ms, double unpruned_serial_ms, bool identical) {
  Measurement m;
  m.kernel = kernel;
  m.n = n;
  m.threads = threads;
  m.wall_ms = wall_ms;
  m.speedup_vs_unpruned = wall_ms > 0.0 && unpruned_serial_ms > 0.0
                              ? unpruned_serial_ms / wall_ms
                              : 1.0;
  m.identical = identical;
  m.simd_target = ToString(ActiveSimdTarget());
  return m;
}

// ---------------------------------------------------------------------------
// Peak-RSS bookkeeping (Linux /proc/self).

long long ReadStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long long value = -1;
  const size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      value = std::atoll(line + field_len + 1);
      break;
    }
  }
  std::fclose(f);
  return value;
}

// Resets VmHWM to the current VmRSS so the next PeakRssKb() read meters
// this phase alone. Kernels without CLEAR_REFS_MM_HIWATER_RSS ignore it.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

long long PeakRssKb() {
  const long long hwm = ReadStatusKb("VmHWM");
  return hwm >= 0 ? hwm : ReadStatusKb("VmRSS");
}

// ---------------------------------------------------------------------------
// Tuple series. The workload is the bounded-support scale scenario (a
// few hundred wide exclusion rules plus a certain-tuple prefix): the
// Poisson-binomial support stays O(rules) regardless of N, which keeps
// the *unpruned* N=1M DP tractable enough to race, while the prefix mass
// still accumulates fast enough for the Q_phi(Y) - 1 bound to stop the
// pruned sweep after a tiny fraction of the stream — this PR's headline
// number. The unpruned kernel runs across the whole (placement x
// threads) grid on a fresh preparation per run (the quantile vector
// memoizes; a warm memo would measure a lookup), the pruned sweep is one
// serial run, and every fingerprint must agree.

std::vector<Measurement> TuplePruneSeries(const TupleRelation& rel, int n) {
  const TiePolicy ties = TiePolicy::kBreakByIndex;
  std::vector<Measurement> series;
  double unpruned_serial_ms = 0.0;
  std::uint64_t reference = 0;
  bool have_reference = false;

  for (PlacementPolicy placement : kPlacements) {
    for (int threads : kThreadCounts) {
      const auto prepared = QueryEngine::Prepare(rel);
      KernelReport report;
      Timer timer;
      TupleQuantileRanks(*prepared, kPhi, ties, Par(threads, placement),
                         &report);
      const std::vector<RankedTuple> topk =
          TupleQuantileRankTopK(*prepared, kTopK, kPhi, ties);
      const double wall_ms = timer.ElapsedMs();
      const std::uint64_t print = TopKFingerprint(topk);
      if (!have_reference) {
        reference = print;
        have_reference = true;
      }
      if (placement == PlacementPolicy::kFlat && threads == 1) {
        unpruned_serial_ms = wall_ms;
      }
      series.push_back(
          Row(std::string("tuple_quantile_unpruned_") + ToString(placement),
              n, threads, wall_ms, unpruned_serial_ms, print == reference));
    }
  }

  const auto prepared = QueryEngine::Prepare(rel);
  Timer timer;
  const PrunedTopKResult pruned =
      TupleQuantileRankTopKPrune(*prepared, kTopK, kPhi, ties);
  Measurement m = Row("tuple_quantile_pruned", n, 1, timer.ElapsedMs(),
                      unpruned_serial_ms,
                      TopKFingerprint(pruned.topk) == reference);
  m.tuples_scanned = pruned.tuples_scanned;
  series.push_back(m);
  return series;
}

// ---------------------------------------------------------------------------
// Attr series. Exponentially decaying expected scores with narrow
// multiplicative pdfs (support stays positive, so the Markov step is
// valid): e_last falls below phi times the top ladder rung after a small
// fraction of the stream, which is where the Markov +
// truncated-Poisson-binomial value ladder fires. The pruned kernel
// itself runs across the grid (its per-block rank DPs use the worker
// slots); the unpruned serial kernel anchors both the speedup and the
// reference fingerprint. It is the relation-level form deliberately: the
// prepared unpruned path materializes the full N x N rank-distribution
// matrix, which at N = 20k would be a 3 GB bench of the allocator, not
// the DP. Stop positions must also agree across the grid — the bound is
// part of the determinism contract.

AttrRelation MakeDecayingAttrRelation(int n) {
  std::vector<AttrTuple> tuples;
  tuples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    AttrTuple t;
    t.id = i;
    const double centre =
        1.0e6 * std::exp(-25.0 * static_cast<double>(i) /
                         static_cast<double>(n > 0 ? n : 1));
    t.pdf = {{centre * 0.99, 0.25}, {centre, 0.5}, {centre * 1.01, 0.25}};
    tuples.push_back(std::move(t));
  }
  return AttrRelation(std::move(tuples));
}

std::vector<Measurement> AttrPruneSeries(const AttrRelation& rel, int n) {
  const TiePolicy ties = TiePolicy::kBreakByIndex;
  std::vector<Measurement> series;

  const auto unpruned_prepared = QueryEngine::Prepare(rel);
  Timer unpruned_timer;
  const std::vector<RankedTuple> unpruned =
      AttrQuantileRankTopK(*unpruned_prepared, kTopK, kPhi, ties);
  const double unpruned_serial_ms = unpruned_timer.ElapsedMs();
  const std::uint64_t reference = TopKFingerprint(unpruned);
  series.push_back(Row("attr_quantile_unpruned", n, 1, unpruned_serial_ms,
                       unpruned_serial_ms, true));

  long long reference_stop = -1;
  for (PlacementPolicy placement : kPlacements) {
    for (int threads : kThreadCounts) {
      const auto fresh = QueryEngine::Prepare(rel);
      KernelReport report;
      Timer timer;
      const PrunedTopKResult pruned = AttrQuantileRankTopKPrune(
          *fresh, kTopK, kPhi, ties, Par(threads, placement), &report);
      const double wall_ms = timer.ElapsedMs();
      if (reference_stop < 0) reference_stop = pruned.prune_stop_position;
      Measurement m =
          Row(std::string("attr_quantile_pruned_") + ToString(placement), n,
              threads, wall_ms, unpruned_serial_ms,
              TopKFingerprint(pruned.topk) == reference &&
                  pruned.prune_stop_position == reference_stop);
      m.tuples_scanned = pruned.tuples_scanned;
      series.push_back(m);
    }
  }
  return series;
}

// ---------------------------------------------------------------------------
// RSS series. Both preparations consume the exact same logical relation,
// produced tuple-by-tuple from a closed-form generator so the blocked
// path never materializes the full input. Rule keys first appear in
// increasing order, which makes the builder's first-appearance rule
// numbering coincide with the eager rules vector — preparation is then
// bit-identical, which the pruned answer + stop position assert.

constexpr int kRssRules = 256;
constexpr int kRssSingletons = 200;
constexpr int kRssBlock = 65536;

TLTuple StreamedTuple(int i, int n, int* rule_key) {
  TLTuple t;
  t.id = i;
  t.score = static_cast<double>((static_cast<long long>(i) * 7919) % 9973) +
            1.0 / (1.0 + static_cast<double>(i));  // distinct scores
  if (i < kRssSingletons) {
    *rule_key = -1;
    t.prob = (i % 10 == 0) ? 1.0 : 0.25 + 0.7 * ((i * 13) % 101) / 101.0;
    return t;
  }
  const int members_floor = (n - kRssSingletons) / kRssRules;
  const int remainder = (n - kRssSingletons) % kRssRules;
  const int r = (i - kRssSingletons) % kRssRules;
  const int members = members_floor + (r < remainder ? 1 : 0);
  *rule_key = r;
  t.prob = 0.95 / static_cast<double>(members);
  return t;
}

struct RssResult {
  Measurement row;
  std::uint64_t print = 0;
  long long stop = -1;
};

RssResult PrepareMonolithic(int n) {
  malloc_trim(0);  // return freed arenas so RSS meters THIS preparation
  ResetPeakRss();
  const long long base_kb = PeakRssKb();
  Timer timer;
  std::vector<TLTuple> tuples(static_cast<size_t>(n));
  std::vector<std::vector<int>> rules(static_cast<size_t>(kRssRules));
  for (int i = 0; i < n; ++i) {
    int key = -1;
    tuples[static_cast<size_t>(i)] = StreamedTuple(i, n, &key);
    if (key >= 0) rules[static_cast<size_t>(key)].push_back(i);
  }
  // The documented eager flow: the caller materializes the relation and
  // Prepare copies it into the prepared object (which owns its state)
  // while the caller's relation is still alive — two full relations
  // coexist at the peak. The blocked path instead hands each block's
  // storage to the builder, so the sealed prepared state holds the only
  // copy that ever exists.
  const TupleRelation rel(std::move(tuples), std::move(rules));
  const auto prepared = QueryEngine::Prepare(rel);
  RssResult out;
  out.row = Row("prep_monolithic", n, 1, timer.ElapsedMs(), 0.0, true);
  out.row.rss_delta_kb = PeakRssKb() - base_kb;
  const PrunedTopKResult pruned =
      TupleQuantileRankTopKPrune(*prepared, kTopK, kPhi);
  out.print = TopKFingerprint(pruned.topk);
  out.stop = pruned.prune_stop_position;
  return out;
}

RssResult PrepareBlocked(int n) {
  malloc_trim(0);  // return freed arenas so RSS meters THIS preparation
  ResetPeakRss();
  const long long base_kb = PeakRssKb();
  Timer timer;
  PreparedTupleRelationBuilder builder;
  for (int begin = 0; begin < n; begin += kRssBlock) {
    const int end = begin + kRssBlock < n ? begin + kRssBlock : n;
    std::vector<TLTuple> block(static_cast<size_t>(end - begin));
    std::vector<int> keys(static_cast<size_t>(end - begin));
    for (int i = begin; i < end; ++i) {
      block[static_cast<size_t>(i - begin)] =
          StreamedTuple(i, n, &keys[static_cast<size_t>(i - begin)]);
    }
    builder.AddBlock(std::move(block), keys);
  }
  const auto prepared = builder.Seal();
  RssResult out;
  out.row = Row("prep_blocked", n, 1, timer.ElapsedMs(), 0.0, true);
  out.row.rss_delta_kb = PeakRssKb() - base_kb;
  const PrunedTopKResult pruned =
      TupleQuantileRankTopKPrune(*prepared, kTopK, kPhi);
  out.print = TopKFingerprint(pruned.topk);
  out.stop = pruned.prune_stop_position;
  return out;
}

std::vector<Measurement> RssSeries(int n) {
  RssResult blocked = PrepareBlocked(n);  // blocked first: smaller peak
  RssResult mono = PrepareMonolithic(n);
  const bool identical =
      blocked.print == mono.print && blocked.stop == mono.stop;
  blocked.row.identical = identical;
  mono.row.identical = identical;
  return {blocked.row, mono.row};
}

// ---------------------------------------------------------------------------

void PrintSeries(const std::string& title,
                 const std::vector<Measurement>& series) {
  Table table("M1: " + title,
              {"kernel", "n", "threads", "wall ms", "speedup", "scanned",
               "rss kb", "identical"});
  for (const Measurement& m : series) {
    table.AddRow({m.kernel, FormatInt(m.n), FormatInt(m.threads),
                  FormatDouble(m.wall_ms, 2),
                  FormatDouble(m.speedup_vs_unpruned, 2),
                  FormatInt(m.tuples_scanned),
                  m.rss_delta_kb >= 0 ? FormatInt(m.rss_delta_kb) : "-",
                  m.identical ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\n");
}

void WriteJson(const std::string& path, const char* mode,
               const std::vector<Measurement>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"harness\": \"bench_million_scale\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", mode);
  std::fprintf(f, "  \"hardware_threads\": %d,\n", ResolveThreads(0));
  std::fprintf(f, "  \"planning_topology\": \"%s\",\n",
               GlobalTopology().ToSpec().c_str());
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Measurement& m = all[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"n\": %d, \"threads\": %d, "
                 "\"simd_target\": \"%s\", \"wall_ms\": %.3f, "
                 "\"speedup_vs_unpruned\": %.3f, \"tuples_scanned\": %lld, "
                 "\"rss_delta_kb\": %lld, \"identical\": %s}%s\n",
                 m.kernel.c_str(), m.n, m.threads, m.simd_target, m.wall_ms,
                 m.speedup_vs_unpruned, m.tuples_scanned, m.rss_delta_kb,
                 m.identical ? "true" : "false",
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"metrics\": %s\n",
               metrics::Registry::Global().RenderJsonSnapshot().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int RunHarness(const char* mode, int tuple_n, int tuple_rules, int attr_n,
               int rss_n, const std::string& json_path) {
  std::vector<Measurement> all;
  {
    // First, before any other series pollutes the heap: freed glibc
    // arenas stay resident, so a later phase's allocations reuse pages
    // the RSS meter can no longer see.
    const auto series = RssSeries(rss_n);
    PrintSeries("preparation peak RSS, blocked vs monolithic", series);
    all.insert(all.end(), series.begin(), series.end());
  }
  {
    const TupleRelation rel =
        testgen::BoundedSupportTupleRelation(tuple_n, tuple_rules, 200, 41);
    const auto series = TuplePruneSeries(rel, tuple_n);
    PrintSeries("tuple quantile top-k, pruned vs unpruned", series);
    all.insert(all.end(), series.begin(), series.end());
  }
  {
    const AttrRelation rel = MakeDecayingAttrRelation(attr_n);
    const auto series = AttrPruneSeries(rel, attr_n);
    PrintSeries("attr quantile top-k, pruned vs unpruned", series);
    all.insert(all.end(), series.begin(), series.end());
  }

  bool identical = true;
  for (const Measurement& m : all) identical = identical && m.identical;
  std::printf("bit-identical everywhere: %s\n", identical ? "yes" : "NO");
  std::printf("planning topology: %s (%d node(s))\n",
              GlobalTopology().ToSpec().c_str(),
              GlobalTopology().num_nodes());

  if (!json_path.empty()) WriteJson(json_path, mode, all);
  return identical ? 0 : 1;  // identity failures fail the harness
}

}  // namespace
}  // namespace urank

int main(int argc, char** argv) {
  bool smoke = false;
  bool nightly = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--nightly") {
      nightly = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--nightly] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    return urank::RunHarness("smoke", 100000, 128, 2000, 200000, json_path);
  }
  if (nightly) {
    return urank::RunHarness("nightly", 300000, 256, 5000, 400000,
                             json_path);
  }
  return urank::RunHarness("full", 1000000, 256, 20000, 1000000, json_path);
}
