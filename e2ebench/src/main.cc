// e2e_bench: runs one workload of the end-to-end benchmark against a real
// urankd subprocess and prints the result.
//
//   e2e_bench --workload=fresh-rank|ingest-read --seed=N
//              --seconds=S --trace=0|1 --urankd=PATH --data-dir=DIR
//              [--build-type=Release] [--trace-out=FILE]
//              [--corrupt-reference]
//
// Report lines ("# ...") come first; the last line is one JSON object with
// the keys correct, attempted, failed and metrics (end-to-end metrics with
// --trace=0, per-layer metrics with --trace=1). Exit code 0 only when the
// run completed; a run with wrong answers still exits 0 with
// "correct": false. e2ebench/run.py builds the binaries and calls this.
#include <sched.h>
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "workloads.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int AllowedCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

// A JSON number with all its digits (17 significant).
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void PrintTable(const char* section, const e2e::MetricTable& table) {
  for (const e2e::Metric& m : table.metrics()) {
    std::printf("# %-9s %-44s %14.6g %-6s n=%lld%s%s\n", section, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "e2e_bench: refusing to report from a non-Release or "
               "sanitizer build\n");
  return 2;
#endif
  e2e::RunConfig cfg;
  cfg.nproc = AllowedCores();
  std::string build_type;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (Flag(a, "--workload", &value)) {
      cfg.workload = value;
    } else if (Flag(a, "--seed", &value)) {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (Flag(a, "--seconds", &value)) {
      cfg.seconds = std::atof(value.c_str());
    } else if (Flag(a, "--trace", &value)) {
      cfg.trace = value == "1";
    } else if (Flag(a, "--urankd", &value)) {
      cfg.urankd = value;
    } else if (Flag(a, "--data-dir", &value)) {
      cfg.data_dir = value;
    } else if (Flag(a, "--build-type", &value)) {
      build_type = value;
    } else if (Flag(a, "--trace-out", &value)) {
      cfg.trace_out = value;
    } else if (std::strcmp(a, "--corrupt-reference") == 0) {
      cfg.corrupt = true;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown argument %s\n", a);
      return 2;
    }
  }
  if (!e2e::KnownWorkload(cfg.workload) || cfg.seconds <= 0.0 ||
      cfg.urankd.empty() || cfg.data_dir.empty()) {
    std::fprintf(stderr, "e2e_bench: bad or missing arguments\n");
    return 2;
  }
  if (build_type != "Release") {
    std::fprintf(stderr, "e2e_bench: build type '%s' is not Release\n",
                 build_type.c_str());
    return 2;
  }
  ::mkdir(cfg.data_dir.c_str(), 0755);
  // Wake-ups on time: the default 50 us timer slack would make every
  // open-loop send late by up to that much.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const e2e::RunResult result = e2e::RunWorkload(cfg);

  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "simd=%s build=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc,
              result.simd.empty() ? "?" : result.simd.c_str(),
              build_type.c_str());
  std::printf("# checked %lld of %lld ops: %lld failed\n", result.checked,
              result.attempted, result.failed);
  for (const std::string& p : result.problems) {
    std::printf("# problem: %s\n", p.c_str());
  }
  PrintTable("e2e", result.end_to_end);
  PrintTable("workload", result.report);
  PrintTable("layer", result.per_layer);

  const e2e::MetricTable& shown = cfg.trace ? result.per_layer : result.end_to_end;
  if (shown.metrics().empty()) {
    std::fprintf(stderr, "e2e_bench: the run did not complete\n");
    return 1;
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const e2e::Metric& m : shown.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + Escape(m.name) + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + Escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
