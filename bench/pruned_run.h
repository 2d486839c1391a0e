// Shared by the pruned-scan harnesses (E6, E15, E16): run one request
// through QueryEngine::Run with QueryRequest::prune, time it, and check
// its answer against the unpruned kernel's.

#ifndef URANK_BENCH_PRUNED_RUN_H_
#define URANK_BENCH_PRUNED_RUN_H_

#include <cstdio>

#include "core/engine/query_engine.h"
#include "util/timer.h"

namespace urank {

struct PrunedRun {
  QueryResult result;  // the pruned run (stats.tuples_scanned, ...)
  double ms = 0.0;     // median wall time of the pruned Run
};

// Times `repeats` pruned Runs of `request` on `pruned`, then runs the
// request unpruned on `full` and compares ids and statistics exactly. A
// mismatch is printed and clears *identical, which the harness turns into
// a non-zero exit. The two engines must wrap separately prepared copies
// of one relation: `pruned` is only ever given pruned requests, so its
// statistic memo stays cold and every Run executes the pruned kernel.
// Preparation happens when the engines are built, outside the timer.
inline PrunedRun RunPrunedChecked(const QueryEngine& pruned,
                                  const QueryEngine& full,
                                  QueryRequest request, int repeats,
                                  bool* identical) {
  PrunedRun run;
  request.prune = true;
  run.ms = MedianTimeMs(repeats, [&] { run.result = pruned.Run(request); });
  request.prune = false;
  const QueryResult reference = full.Run(request);
  if (!run.result.status.ok() || !reference.status.ok() ||
      run.result.answer.ids != reference.answer.ids ||
      run.result.answer.statistics != reference.answer.statistics) {
    std::fprintf(stderr, "pruned answer differs from unpruned: %s k=%d\n",
                 ToString(request.options.semantics), request.options.k);
    *identical = false;
  }
  return run;
}

}  // namespace urank

#endif  // URANK_BENCH_PRUNED_RUN_H_
