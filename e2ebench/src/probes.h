// In-process layer probes of the traced run: spans recorded by the client
// around calls into each module's public functions (serve::ParseRequest,
// serve::RenderQueryResponse, serve::ResultCache::Get, QueryEngine::Resolve,
// QueryEngine::Run, the CSV readers and mutable-store construction). Nothing
// inside the library is instrumented for this.
#ifndef E2EBENCH_PROBES_H_
#define E2EBENCH_PROBES_H_

#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "inputs.h"

namespace e2e {

// The cold queries of one fresh-rank round: k=10, phi=0.9, threshold 0.1,
// prune on, `threads` worker slots. Tuple level: all 8 semantics; attribute
// level: all but U-Topk.
std::vector<QuerySpec> FreshRankSpecs(bool attr, int threads);

struct KernelEntry {
  std::string name;  // "<semantics>.<model>"
  std::vector<double> ms_serial;
  std::vector<double> ms_parallel;
  long long dp_cells = 0;
  long long tuples_scanned = 0;
  long long n = 0;
  bool pruned = false;
};

struct KernelProbe {
  std::vector<KernelEntry> entries;
  long long chunks = 0;  // urank_parallel_chunks_total delta, parallel runs
};

// Every fresh-rank query, cold (a fresh engine per Run), at 1 and at
// `threads` threads, `reps` times.
KernelProbe ProbeKernels(const urank::TupleRelation& tuple_rel,
                         const urank::AttrRelation& attr_rel, int threads,
                         int reps, SpanLog* spans);

// Per-call microseconds of serve::ParseRequest over `lines`.
std::vector<double> ProbeParse(const std::vector<std::string>& lines,
                               SpanLog* spans);

// Per-call microseconds of serve::RenderQueryResponse and of
// serve::ResultCache::Get, replaying the answered records in order over the
// reference answers (the cache is first filled with every reference).
struct ServeProbe {
  std::vector<double> render_us;
  std::vector<double> get_us;
};
ServeProbe ProbeServe(const std::vector<QueryRecord>& records,
                      const std::vector<ReferenceAnswer>& references,
                      const std::vector<RelationLog>& logs,
                      const std::vector<QuerySpec>& specs, SpanLog* spans);

// Per-call microseconds of QueryEngine::Resolve.
std::vector<double> ProbeResolve(const urank::QueryEngine& engine, int calls,
                                 SpanLog* spans);

// CSV read and mutable-store construction (= prepare) of each relation.
struct SetupProbe {
  std::vector<double> csv_read_ms;
  std::vector<double> prepare_ms;
};
SetupProbe ProbeSetup(const std::vector<std::string>& csv_paths,
                      const std::vector<bool>& attr, int reps, SpanLog* spans);

}  // namespace e2e

#endif  // E2EBENCH_PROBES_H_
