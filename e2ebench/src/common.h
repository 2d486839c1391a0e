// Shared helpers for the end-to-end benchmark client: clocks, order
// statistics, the metric table a run prints, and the in-memory span
// recorder used by traced runs.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double NsToMs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()) + 0.999999999);
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1), values.end());
  return values[rank - 1];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// Samples strictly beyond the nearest-rank q-th percentile.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.999999999);
  return n > rank ? n - rank : 0;
}

// One reported number. `samples` is how many observations it summarizes
// (1 for a count or a ratio of two counts).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;
  std::string note;
};

class MetricTable {
 public:
  void Add(std::string name, double value, std::string unit, long long samples,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  // The metric named `name`, or nullptr.
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
};

// In-memory span recorder (name, start, end, request id), written out as
// Chrome trace_event JSON when the run ends. The client's spans do not
// nest: each wraps one call into the program or one request on the wire.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  long long request = -1;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  // Records a finished span (a no-op when disabled).
  void Add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           long long request = -1) {
    if (enabled_) spans_.push_back({name, start_ns, end_ns, request});
  }
  // Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(NsToMs(s.end_ns - s.start_ns));
    }
    return out;
  }
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
