// The named workloads (see e2ebench/NOTES.md for why each exists):
//   fresh-rank   read-after-write analyst rounds, every query a cold kernel
//   ingest-read  open-loop writes beside open-loop reads at N=100k
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;  // flip one reference answer (self-test)
  std::string urankd;
  std::string data_dir;
  std::string trace_out;  // Chrome trace of the client's spans
  int nproc = 1;
};

struct RunResult {
  MetricTable end_to_end;  // printed in the result line with --trace 0
  MetricTable per_layer;   // printed in the result line with --trace 1
  MetricTable report;      // workload-specific figures, report lines only
  long long attempted = 0;
  long long failed = 0;
  long long checked = 0;
  bool correct = false;
  std::string simd;
  std::vector<std::string> problems;
};

bool KnownWorkload(const std::string& name);
// With config.trace, runs the workload untraced and then traced, each for
// half of config.seconds, and reports the traced run (plus
// trace.overhead_share, and both runs' ops).
RunResult RunWorkload(const RunConfig& config);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
