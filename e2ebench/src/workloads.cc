#include "workloads.h"

#include <functional>
#include <memory>
#include <random>
#include <tuple>
#include <utility>

#include "check.h"
#include "daemon.h"
#include "inputs.h"
#include "net.h"
#include "probes.h"

namespace e2e {

namespace {

constexpr int kPhaseMain = 1;   // the measured traffic
constexpr int kPhaseProbe = 2;  // traced memo probe

// ingest-read's open-loop rates, chosen so that urankd stays below
// saturation with no growing backlog (NOTES.md, "Workloads").
constexpr double kIngestWritesPerS = 2.0;  // mutate batches of 64 ops
constexpr double kIngestReadsPerS = 100.0;

// Repetitions of each cold query in the traced kernel replay.
constexpr int kKernelReps = 3;

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t salt) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + salt);
  return rng() >> 1;
}

// The urankd counters a traced run differences across its traffic.
const char* const kScrapedCounters[] = {
    "urank_serve_cache_hits_total",
    "urank_serve_cache_misses_total",
    "urank_serve_cache_evictions_total",
    "urank_engine_stat_cache_hits_total",
    "urank_engine_stat_cache_misses_total",
};

// One run's daemon, connections, inputs and everything recorded.
class RunState {
 public:
  explicit RunState(const RunConfig& config) : cfg(config) {}

  const RunConfig& cfg;
  std::vector<RelationLog> logs;
  std::vector<std::string> csv_paths;
  std::vector<QuerySpec> specs;
  std::vector<int> spec_relation;
  std::vector<QueryRecord> queries;
  std::vector<MutateRecord> mutates;
  BodyTable bodies;
  SpanLog spans;
  Daemon daemon;
  std::vector<Connection> conns;
  std::vector<std::string> recorded_lines;  // first lines sent (traced)
  std::vector<double> lag_ms;
  std::vector<double> setup_s;
  std::uint64_t last_ack_epoch = 0;
  long long next_id = 1;
  bool transport_ok = true;
  std::vector<std::string> problems;

  void AddTuple(const std::string& name, urank::TupleRelation rel,
                const std::string& path) {
    RelationLog log;
    log.name = name;
    log.tuple_rel = std::move(rel);
    logs.push_back(std::move(log));
    csv_paths.push_back(path);
  }
  void AddAttr(const std::string& name, urank::AttrRelation rel,
               const std::string& path) {
    RelationLog log;
    log.name = name;
    log.attr = true;
    log.attr_rel = std::move(rel);
    logs.push_back(std::move(log));
    csv_paths.push_back(path);
  }
  int AddSpec(const QuerySpec& spec, int relation) {
    specs.push_back(spec);
    spec_relation.push_back(relation);
    return static_cast<int>(specs.size()) - 1;
  }

  void Record(const std::string& line) {
    if (cfg.trace && recorded_lines.size() < 5000) recorded_lines.push_back(line);
  }

  int SendQuery(int conn, int query, std::uint64_t min_epoch, bool bypass,
                int phase, std::uint64_t due_ns) {
    QueryRecord rec;
    rec.phase = phase;
    rec.query = query;
    rec.relation = spec_relation[static_cast<std::size_t>(query)];
    rec.min_epoch = min_epoch;
    const std::string line = QueryLine(
        logs[static_cast<std::size_t>(rec.relation)].name,
        specs[static_cast<std::size_t>(query)], next_id++, min_epoch, bypass);
    Record(line);
    queries.push_back(rec);
    const int tag = static_cast<int>(queries.size()) - 1;
    Outstanding out;
    out.due_ns = due_ns;
    out.tag = tag;
    out.sent_ns = NowNs();
    if (!Send(&conns[static_cast<std::size_t>(conn)], line, out)) {
      transport_ok = false;
    }
    return tag;
  }

  int SendMutate(int conn, int relation, std::uint64_t due_ns) {
    const RelationLog& log = logs[static_cast<std::size_t>(relation)];
    MutateRecord rec;
    rec.relation = relation;
    rec.batch = static_cast<int>(log.batches()) - 1;
    const std::string line =
        log.attr ? AttrMutateLine(log.name, log.attr_batches.back(), next_id++)
                 : TupleMutateLine(log.name, log.tuple_batches.back(), next_id++);
    Record(line);
    mutates.push_back(rec);
    const int tag = -static_cast<int>(mutates.size());
    Outstanding out;
    out.due_ns = due_ns;
    out.tag = tag;
    out.sent_ns = NowNs();
    if (!Send(&conns[static_cast<std::size_t>(conn)], line, out)) {
      transport_ok = false;
    }
    return -tag - 1;
  }

  void OnLine(const Outstanding& req, std::string_view line,
              std::uint64_t now) {
    if (req.tag >= 0) {
      QueryRecord& rec = queries[static_cast<std::size_t>(req.tag)];
      rec.rtt_ms = NsToMs(now - req.sent_ns);
      rec.latency_ms = NsToMs(now - req.due_ns);
      spans.Add("tcp.request", req.sent_ns, now, req.tag);
      if (!SliceQueryResponse(line, &bodies, &rec) && problems.size() < 5) {
        problems.push_back("query failed: " + std::string(line.substr(0, 200)));
      }
    } else {
      MutateRecord& rec = mutates[static_cast<std::size_t>(-req.tag - 1)];
      rec.latency_ms = NsToMs(now - req.due_ns);
      if (SliceMutateResponse(line, &rec) && rec.relation == 0) {
        last_ack_epoch = std::max(last_ack_epoch, rec.epoch);
      }
      if (!rec.ok && problems.size() < 5) {
        problems.push_back("mutate failed: " + std::string(line.substr(0, 200)));
      }
    }
  }

  bool Poll(std::uint64_t until_ns) {
    if (!PollOnce(&conns, until_ns,
                  [this](int, const Outstanding& req, std::string_view line,
                         std::uint64_t now) { OnLine(req, line, now); })) {
      transport_ok = false;
    }
    return transport_ok;
  }

  bool Idle() const {
    for (const Connection& c : conns) {
      if (!c.inflight.empty()) return false;
    }
    return true;
  }

  // Polls until every connection is idle (false on timeout or error).
  bool Drain(double timeout_s = 120.0) {
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
    while (!Idle()) {
      if (NowNs() >= deadline || !Poll(deadline)) return false;
    }
    return true;
  }

  // Closed loop: send one query and wait for its response.
  bool Query(int conn, int query, std::uint64_t min_epoch, bool bypass,
             int phase) {
    SendQuery(conn, query, min_epoch, bypass, phase, NowNs());
    return Drain();
  }

  void StopDaemon() {
    for (Connection& c : conns) Close(&c);
    conns.clear();
    daemon.Stop();
  }

  // Starts urankd on the workload's CSVs `reps` times (keeping the last
  // one); each set-up runs to every relation loaded and listed.
  bool Setup(int connections) {
    // Start-up time varies by up to a third from one spawn to the next,
    // so the median is taken over many set-ups.
    constexpr int reps = 11;
    for (int rep = 0; rep < reps; ++rep) {
      if (daemon.running()) StopDaemon();
      const std::uint64_t t0 = NowNs();
      std::vector<std::string> args = {"--port=0"};
      for (std::size_t i = 0; i < logs.size(); ++i) {
        args.push_back("--load=" + logs[i].name + (logs[i].attr ? "=attr:" : "=tuple:") +
                       csv_paths[i]);
      }
      std::string error;
      if (!daemon.Start(cfg.urankd, args, cfg.data_dir + "/urankd.log", &error)) {
        problems.push_back(error);
        return false;
      }
      conns.assign(static_cast<std::size_t>(connections), Connection{});
      for (Connection& c : conns) {
        if (!Connect(daemon.port(), &c, &error)) {
          problems.push_back(error);
          return false;
        }
      }
      std::string response;
      if (!Call(&conns[0], RelationsLine(next_id++), &response)) {
        problems.push_back("admin/relations failed");
        return false;
      }
      for (const RelationLog& log : logs) {
        if (response.find("\"name\":\"" + log.name + "\"") == std::string::npos) {
          problems.push_back("relation " + log.name + " not loaded");
          return false;
        }
      }
      setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    return true;
  }

  std::string Scrape() {
    std::string response;
    if (!Call(&conns[0], MetricsLine(next_id++), &response)) return "";
    return MetricsBody(response);
  }
};

// Counter deltas between two scrapes.
std::vector<double> CounterDeltas(const std::string& before,
                                  const std::string& after) {
  std::vector<double> out;
  for (const char* name : kScrapedCounters) {
    out.push_back(PromValue(after, name) - PromValue(before, name));
  }
  return out;
}

std::string DataPath(const RunConfig& cfg, const std::string& file) {
  return cfg.data_dir + "/" + file;
}

// The fresh-rank relations, generated from the seed (also the kernel
// replay's input on the other workloads).
std::pair<urank::TupleRelation, urank::AttrRelation> FreshInputs(
    const RunConfig& cfg) {
  return {MakeTupleCsv(20000, SubSeed(cfg.seed, 21), DataPath(cfg, "fresh_t.csv")),
          MakeAttrCsv(1000, 5, SubSeed(cfg.seed, 22), DataPath(cfg, "fresh_a.csv"))};
}

std::vector<double> Select(const std::vector<QueryRecord>& records,
                           const std::function<bool(const QueryRecord&)>& keep,
                           double QueryRecord::*field) {
  std::vector<double> out;
  for (const QueryRecord& r : records) {
    if (r.answered && keep(r)) out.push_back(r.*field);
  }
  return out;
}

// Where the traffic phases left things, for the metric step.
struct Traffic {
  std::vector<double> read_ms;     // latency of the workload's reads
  std::vector<double> write_ms;    // mutate ack latency
  std::vector<double> round_ms;    // fresh-rank rounds
  double cpu_ms = 0.0;             // urankd CPU over the measured window
  long long cpu_requests = 0;      // requests completed in that window
  std::string before;  // Prometheus pages around the traffic (traced)
  std::string after;
};

// ---- fresh-rank ----------------------------------------------------------

bool FreshRank(RunState& s, Traffic* t) {
  const RunConfig& cfg = s.cfg;
  auto [trel, arel] = FreshInputs(cfg);
  TupleBatchStream tuple_stream(trel, SubSeed(cfg.seed, 23));
  AttrBatchStream attr_stream(arel, 5, SubSeed(cfg.seed, 24));
  s.AddTuple("fresh_t", std::move(trel), DataPath(cfg, "fresh_t.csv"));
  s.AddAttr("fresh_a", std::move(arel), DataPath(cfg, "fresh_a.csv"));
  std::vector<int> tuple_specs;
  std::vector<int> attr_specs;
  for (const QuerySpec& spec : FreshRankSpecs(false, cfg.nproc)) {
    tuple_specs.push_back(s.AddSpec(spec, 0));
  }
  for (const QuerySpec& spec : FreshRankSpecs(true, cfg.nproc)) {
    attr_specs.push_back(s.AddSpec(spec, 1));
  }
  if (!s.Setup(1)) return false;
  if (cfg.trace) t->before = s.Scrape();

  const double cpu0 = s.daemon.CpuMs();
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  std::uint64_t last_recv = start;
  auto gap = [&] { s.lag_ms.push_back(NsToMs(NowNs() - last_recv)); };
  while (NowNs() < end) {
    const std::uint64_t r0 = NowNs();
    for (int rel = 0; rel < 2; ++rel) {
      RelationLog& log = s.logs[static_cast<std::size_t>(rel)];
      if (log.attr) {
        log.attr_batches.push_back(attr_stream.Next(16));
      } else {
        log.tuple_batches.push_back(tuple_stream.Next(16, 0, 0));
      }
      gap();
      const int m = s.SendMutate(0, rel, NowNs());
      if (!s.Drain()) return false;
      last_recv = NowNs();
      const std::uint64_t epoch = s.mutates[static_cast<std::size_t>(m)].epoch;
      for (int q : rel == 0 ? tuple_specs : attr_specs) {
        gap();
        s.SendQuery(0, q, epoch, false, kPhaseMain, NowNs());
        if (!s.Drain()) return false;
        last_recv = NowNs();
      }
    }
    t->round_ms.push_back(NsToMs(NowNs() - r0));
  }
  t->cpu_ms = s.daemon.CpuMs() - cpu0;
  t->cpu_requests = static_cast<long long>(s.queries.size() + s.mutates.size());
  t->read_ms = Select(s.queries, [](const QueryRecord& r) { return r.phase == kPhaseMain; },
                      &QueryRecord::latency_ms);
  for (const MutateRecord& m : s.mutates) t->write_ms.push_back(m.latency_ms);
  return true;
}

// ---- ingest-read ---------------------------------------------------------

bool IngestRead(RunState& s, Traffic* t) {
  const RunConfig& cfg = s.cfg;
  s.AddTuple("ingest",
             MakeTupleCsv(100000, SubSeed(cfg.seed, 31), DataPath(cfg, "ingest.csv")),
             DataPath(cfg, "ingest.csv"));
  TupleBatchStream stream(s.logs[0].tuple_rel, SubSeed(cfg.seed, 32));
  for (urank::RankingSemantics sem : {urank::RankingSemantics::kExpectedRank,
                                      urank::RankingSemantics::kExpectedScore}) {
    for (int k : {10, 100}) {
      QuerySpec spec;
      spec.semantics = sem;
      spec.k = k;
      s.AddSpec(spec, 0);
    }
  }
  QuerySpec utopk;
  utopk.semantics = urank::RankingSemantics::kUTopk;
  utopk.k = 10;
  s.AddSpec(utopk, 0);

  // Connections 0 and 1 read, connection 2 writes.
  if (!s.Setup(3)) return false;
  if (cfg.trace) t->before = s.Scrape();

  // Reads cycle over the 5 shapes from a seeded offset, every other one
  // with min_epoch, so each write period sees the same request pattern.
  const std::uint64_t offset = SubSeed(cfg.seed, 33) % s.specs.size();
  const double cpu0 = s.daemon.CpuMs();
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  const double write_interval = 1e9 / kIngestWritesPerS;
  const double read_interval = 1e9 / kIngestReadsPerS;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  for (;;) {
    const std::uint64_t write_due =
        start + static_cast<std::uint64_t>((static_cast<double>(writes) + 0.5) * write_interval);
    const std::uint64_t read_due =
        start + static_cast<std::uint64_t>(static_cast<double>(reads) * read_interval);
    const std::uint64_t due = std::min(write_due, read_due);
    if (due >= end) break;
    const std::uint64_t now = NowNs();
    if (now < due) {
      if (!s.Poll(due)) return false;
      continue;
    }
    s.lag_ms.push_back(NsToMs(now - due));
    if (write_due <= read_due) {
      s.logs[0].tuple_batches.push_back(stream.Next(64, 16, 16));
      s.SendMutate(2, 0, write_due);
      ++writes;
    } else {
      const int q = static_cast<int>((reads + offset) % s.specs.size());
      // Both reader connections get reads with and without min_epoch.
      const std::uint64_t min_epoch = (reads / 2) % 2 == 1 ? s.last_ack_epoch : 0;
      s.SendQuery(static_cast<int>(reads % 2), q, min_epoch, false, kPhaseMain,
                  read_due);
      ++reads;
    }
  }
  if (!s.Drain()) return false;
  t->cpu_ms = s.daemon.CpuMs() - cpu0;
  t->cpu_requests = static_cast<long long>(s.queries.size() + s.mutates.size());
  t->read_ms = Select(s.queries, [](const QueryRecord& r) { return r.phase == kPhaseMain; },
                      &QueryRecord::latency_ms);
  for (const MutateRecord& m : s.mutates) t->write_ms.push_back(m.latency_ms);
  return true;
}

// ---- metrics -------------------------------------------------------------

void AddTiming(MetricTable* table, const std::string& name,
               const std::vector<double>& values, double q,
               const std::string& unit = "ms") {
  std::string note;
  if (q > 0.5 && SamplesBeyond(values.size(), q) < 10) {
    note = "fewer than 10 samples beyond this percentile";
  }
  table->Add(name, Percentile(values, q), unit,
             static_cast<long long>(values.size()), note);
}

void EndToEnd(RunState& s, const Traffic& t, double peak_rss_mb,
              RunResult* out) {
  MetricTable& e = out->end_to_end;
  e.Add("setup_s", Median(s.setup_s), "s", static_cast<long long>(s.setup_s.size()));
  e.Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  e.Add("cpu_ms_per_req",
        t.cpu_requests > 0 ? t.cpu_ms / static_cast<double>(t.cpu_requests) : 0.0, "ms",
        t.cpu_requests);
  // The op is the workload's user-visible operation: on fresh-rank the
  // analyst's whole round (both writes and all 15 reads), on ingest-read
  // the writer's mutate acknowledgement.
  AddTiming(&e, "op_p50_ms", s.cfg.workload == "fresh-rank" ? t.round_ms : t.write_ms, 0.5);

  // Reads: the median and every tail with at least 10 samples beyond it.
  MetricTable& r = out->report;
  AddTiming(&r, "read_p50_ms", t.read_ms, 0.5);
  for (int p : {75, 90, 95, 99}) {
    if (SamplesBeyond(t.read_ms.size(), p / 100.0) < 10) break;
    AddTiming(&r, "read_p" + std::to_string(p) + "_ms", t.read_ms, p / 100.0);
  }
  double sum = 0.0;
  for (double v : t.read_ms) sum += v;
  r.Add("read_mean_ms", t.read_ms.empty() ? 0.0 : sum / static_cast<double>(t.read_ms.size()), "ms",
        static_cast<long long>(t.read_ms.size()));
  if (!t.write_ms.empty()) {
    AddTiming(&r, "write_p50_ms", t.write_ms, 0.5);
    AddTiming(&r, SamplesBeyond(t.write_ms.size(), 0.99) >= 10 ? "write_p99_ms" : "write_p90_ms",
              t.write_ms, SamplesBeyond(t.write_ms.size(), 0.99) >= 10 ? 0.99 : 0.9);
  }
  if (!t.round_ms.empty()) {
    AddTiming(&r, "round_p50_ms", t.round_ms, 0.5);
    AddTiming(&r, "round_p90_ms", t.round_ms, 0.9);
  }
  AddTiming(&r, "loadgen.lag_p99_ms", s.lag_ms, 0.99);
  // Per query shape: median latency in the measured phase.
  for (std::size_t q = 0; q < s.specs.size(); ++q) {
    const std::vector<double> ms = Select(
        s.queries,
        [q](const QueryRecord& rec) {
          return rec.phase == kPhaseMain && rec.query == static_cast<int>(q);
        },
        &QueryRecord::latency_ms);
    if (ms.empty()) continue;
    std::string name = Label(s.specs[q]);
    for (char& c : name) {
      if (c == ' ') c = ':';
    }
    AddTiming(&r, s.logs[static_cast<std::size_t>(s.spec_relation[q])].name + ":" + name,
              ms, 0.5);
  }
  r.Add("failed_share",
        out->attempted > 0 ? static_cast<double>(out->failed) / static_cast<double>(out->attempted) : 0.0,
        "share", out->attempted);
}

void PerLayer(RunState& s, const Traffic& t, const CheckReport& check,
              RunResult* out) {
  const RunConfig& cfg = s.cfg;
  MetricTable& m = out->per_layer;
  auto traffic = [](const QueryRecord& r) { return r.ok && r.phase == kPhaseMain; };

  std::vector<double> overhead;
  for (const QueryRecord& r : s.queries) {
    if (traffic(r)) overhead.push_back(r.rtt_ms - r.serve_ms);
  }
  AddTiming(&m, "tcp.rtt_overhead_p50_ms", overhead, 0.5);

  const std::vector<double> parse_us = ProbeParse(s.recorded_lines, &s.spans);
  const ServeProbe serve = ProbeServe(s.queries, check.references, s.logs, s.specs, &s.spans);
  AddTiming(&m, "protocol.parse_us_p50", parse_us, 0.5, "us");
  AddTiming(&m, "protocol.render_us_p50", serve.render_us, 0.5, "us");

  const std::vector<double> queue = Select(s.queries, traffic, &QueryRecord::queue_ms);
  AddTiming(&m, "server.queue_ms_p50", queue, 0.5);
  AddTiming(&m, "server.queue_ms_p99", queue, 0.99);

  long long hits = 0;
  long long lookups = 0;
  for (const QueryRecord& r : s.queries) {
    if (!traffic(r) || r.cache == 'b') continue;
    ++lookups;
    if (r.cache == 'h') ++hits;
  }
  const std::vector<double> deltas = CounterDeltas(t.before, t.after);
  const double counted_lookups = deltas[0] + deltas[1];
  m.Add("result_cache.hit_ratio", lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
        "share", lookups,
        "urank_serve_cache_* counters: " +
            std::to_string(static_cast<long long>(deltas[0])) + " hits / " +
            std::to_string(static_cast<long long>(counted_lookups)) + " lookups");
  AddTiming(&m, "result_cache.get_us_p50", serve.get_us, 0.5, "us");
  m.Add("result_cache.evictions", deltas[2], "count", 1);

  std::vector<double> resolve_us;
  for (const auto& engine : check.engines) {
    const std::vector<double> us = ProbeResolve(*engine, 5000, &s.spans);
    resolve_us.insert(resolve_us.end(), us.begin(), us.end());
  }
  AddTiming(&m, "engine.resolve_us_p50", resolve_us, 0.5, "us");
  // The memo figures count the traffic's engine runs (result-cache misses)
  // only. When the traffic had no memo hit, the hit cost comes from the
  // memo probe instead.
  long long engine_runs = 0;
  long long memo_hits = 0;
  for (const QueryRecord& r : s.queries) {
    if (!traffic(r) || r.cache == 'h') continue;
    ++engine_runs;
    if (r.reused) ++memo_hits;
  }
  const int memo_phase = memo_hits > 0 ? kPhaseMain : kPhaseProbe;
  AddTiming(&m, "engine.memo_hit_ms_p50",
            Select(s.queries,
                   [memo_phase](const QueryRecord& r) {
                     return r.ok && r.phase == memo_phase && r.cache != 'h' && r.reused;
                   },
                   &QueryRecord::engine_ms),
            0.5, "ms");
  m.Add("memo.hit_ratio",
        engine_runs > 0 ? static_cast<double>(memo_hits) / static_cast<double>(engine_runs) : 0.0,
        "share", engine_runs,
        "urank_engine_stat_cache_* counters: " +
            std::to_string(static_cast<long long>(deltas[3])) + " hits / " +
            std::to_string(static_cast<long long>(deltas[3] + deltas[4])) + " lookups");

  // Kernels: fresh-rank's cold queries replayed in process.
  urank::TupleRelation kt;
  urank::AttrRelation ka;
  if (cfg.workload == "fresh-rank") {
    kt = check.engines[0]->Resolve().tuple->relation();
    ka = check.engines[1]->Resolve().attr->relation();
  } else {
    std::tie(kt, ka) = FreshInputs(cfg);
  }
  const KernelProbe kernels = ProbeKernels(kt, ka, cfg.nproc, kKernelReps, &s.spans);
  long long scanned = 0;
  long long scan_n = 0;
  for (const KernelEntry& k : kernels.entries) {
    AddTiming(&m, "kernel." + k.name + ".miss_ms_p50", k.ms_parallel, 0.5);
  }
  for (const KernelEntry& k : kernels.entries) {
    m.Add("kernel." + k.name + ".dp_cells", static_cast<double>(k.dp_cells), "count", 1);
    if (k.pruned) {
      scanned += k.tuples_scanned;
      scan_n += k.n;
    }
  }
  for (const KernelEntry& k : kernels.entries) {
    const double serial = Median(k.ms_serial);
    const double parallel = Median(k.ms_parallel);
    m.Add("kernel." + k.name + ".efficiency",
          parallel > 0.0 ? serial / parallel / cfg.nproc : 0.0, "share",
          static_cast<long long>(k.ms_parallel.size()),
          "threads=" + std::to_string(cfg.nproc));
  }
  m.Add("kernel.scanned_share", scan_n > 0 ? static_cast<double>(scanned) / static_cast<double>(scan_n) : 0.0,
        "share", 1);
  m.Add("parallel.chunks", static_cast<double>(kernels.chunks), "count", 1);

  // Mutable stores: the checker's shadow replay of the recorded batches.
  std::uint64_t merges = 0;
  std::uint64_t compactions = 0;
  for (const auto& engine : check.engines) {
    if (engine->mutable_tuple() != nullptr) {
      merges += engine->mutable_tuple()->delta_merges();
      compactions += engine->mutable_tuple()->compactions();
    } else {
      merges += engine->mutable_attr()->delta_merges();
      compactions += engine->mutable_attr()->compactions();
    }
  }
  const std::vector<double> apply_ms = s.spans.DurationsMs("mutable.apply");
  const std::vector<double> publish_ms = s.spans.DurationsMs("mutable.publish");
  AddTiming(&m, "mutable.apply_ms_p50", apply_ms, 0.5);
  AddTiming(&m, "mutable.publish_ms_p50", publish_ms, 0.5);
  AddTiming(&m, "mutable.publish_ms_p99", publish_ms, 0.99);
  m.Add("mutable.delta_merges", static_cast<double>(merges), "count", 1);
  m.Add("mutable.compactions", static_cast<double>(compactions), "count", 1);

  std::vector<bool> attr;
  for (const RelationLog& log : s.logs) attr.push_back(log.attr);
  const SetupProbe setup = ProbeSetup(s.csv_paths, attr, 3, &s.spans);
  AddTiming(&m, "setup.csv_read_ms", setup.csv_read_ms, 0.5);
  AddTiming(&m, "setup.prepare_ms", setup.prepare_ms, 0.5);

  AddTiming(&m, "loadgen.lag_p99_ms", s.lag_ms, 0.99);
  // The read p50 not covered by per-layer p50s on its blocking path.
  const double read_p50 = Median(t.read_ms);
  const double covered =
      Median(overhead) + Median(queue) +
      Median(Select(s.queries, [&](const QueryRecord& r) { return traffic(r); },
                    &QueryRecord::engine_ms)) +
      (Median(serve.get_us) + Median(serve.render_us)) * 1e-3;
  m.Add("trace.unaccounted_share", read_p50 > 0.0 ? (read_p50 - covered) / read_p50 : 0.0,
        "share", static_cast<long long>(t.read_ms.size()));
}

// One run of the workload: set-up, traffic, (traced) probes, checking.
RunResult RunOnce(const RunConfig& cfg) {
  RunResult out;
  RunState s(cfg);
  s.spans.set_enabled(cfg.trace);
  Traffic t;
  bool ok = false;
  if (cfg.workload == "fresh-rank") {
    ok = FreshRank(s, &t);
  } else {
    ok = IngestRead(s, &t);
  }
  if (!ok) s.problems.push_back("traffic phase did not complete");

  double peak_rss_mb = 0.0;
  if (s.daemon.running()) {
    if (ok && cfg.trace) {
      t.after = s.Scrape();
      // Memo probe, when the traffic had no statistic-memo hit: every query
      // shape twice with the result cache bypassed, so the second run of
      // each is a memo hit.
      bool memo_hit = false;
      for (const QueryRecord& r : s.queries) {
        memo_hit = memo_hit || (r.ok && r.phase == kPhaseMain && r.cache != 'h' && r.reused);
      }
      for (int q = 0; q < static_cast<int>(s.specs.size()) && ok && !memo_hit; ++q) {
        ok = s.Query(0, q, 0, true, kPhaseProbe) && s.Query(0, q, 0, true, kPhaseProbe);
      }
    }
    peak_rss_mb = s.daemon.PeakRssMb();
    s.StopDaemon();
  }

  // Every answered query is checked against the shadow stores.
  const CheckReport check = CheckAll(s.logs, s.specs, &s.queries, &s.mutates,
                                     s.bodies, cfg.nproc, cfg.corrupt, &s.spans);
  out.attempted = static_cast<long long>(s.queries.size() + s.mutates.size());
  long long answered_ok = 0;
  for (const QueryRecord& r : s.queries) {
    if (!r.answered || !r.ok || r.wrong) ++out.failed;
    if (r.ok) ++answered_ok;
    if (out.simd.empty() && r.ok && r.cache != 'h') out.simd = r.simd;
  }
  for (const MutateRecord& m : s.mutates) {
    if (!m.answered || !m.ok || m.wrong) ++out.failed;
  }
  out.checked = check.checked;
  out.correct = ok && s.transport_ok && out.failed == 0 && check.checked == answered_ok;
  out.problems = s.problems;
  out.problems.insert(out.problems.end(), check.problems.begin(), check.problems.end());

  if (ok) {
    EndToEnd(s, t, peak_rss_mb, &out);
    if (cfg.trace) {
      PerLayer(s, t, check, &out);
      if (!cfg.trace_out.empty()) s.spans.WriteChromeTrace(cfg.trace_out);
    }
  }
  return out;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "fresh-rank" || name == "ingest-read";
}

RunResult RunWorkload(const RunConfig& cfg) {
  if (!cfg.trace) return RunOnce(cfg);
  // trace.overhead_share compares the traced run's op_p50_ms with that of
  // an untraced run of the same workload and seed, made first. Each gets
  // half of the seconds, so that the pair measures as long as an untraced
  // run and leaves room for the traced probes.
  RunConfig traced_cfg = cfg;
  traced_cfg.seconds = cfg.seconds / 2;
  RunConfig untraced_cfg = traced_cfg;
  untraced_cfg.trace = false;
  untraced_cfg.trace_out.clear();
  const RunResult untraced = RunOnce(untraced_cfg);
  RunResult out = RunOnce(traced_cfg);
  out.attempted += untraced.attempted;
  out.failed += untraced.failed;
  out.checked += untraced.checked;
  out.correct = out.correct && untraced.correct;
  for (const std::string& p : untraced.problems) {
    out.problems.push_back("untraced run: " + p);
  }
  const Metric* on = out.end_to_end.Find("op_p50_ms");
  const Metric* off = untraced.end_to_end.Find("op_p50_ms");
  if (!out.per_layer.metrics().empty() && on != nullptr && off != nullptr) {
    out.per_layer.Add("trace.overhead_share",
                      off->value > 0.0 ? (on->value - off->value) / off->value : 0.0,
                      "share", on->samples,
                      "untraced op_p50_ms " + std::to_string(off->value) + " (n=" +
                          std::to_string(off->samples) + ")");
  }
  return out;
}

}  // namespace e2e
