#include "probes.h"

#include <fstream>
#include <map>
#include <tuple>

#include "io/csv.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "util/metrics.h"

namespace e2e {

namespace {

constexpr urank::RankingSemantics kAllSemantics[] = {
    urank::RankingSemantics::kExpectedRank,
    urank::RankingSemantics::kMedianRank,
    urank::RankingSemantics::kQuantileRank,
    urank::RankingSemantics::kUTopk,
    urank::RankingSemantics::kUKRanks,
    urank::RankingSemantics::kPTk,
    urank::RankingSemantics::kGlobalTopk,
    urank::RankingSemantics::kExpectedScore,
};

double UsSince(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start) * 1e-3;
}

}  // namespace

std::vector<QuerySpec> FreshRankSpecs(bool attr, int threads) {
  std::vector<QuerySpec> specs;
  for (urank::RankingSemantics s : kAllSemantics) {
    // Attribute-level U-Topk enumerates possible worlds and refuses at
    // this size.
    if (attr && s == urank::RankingSemantics::kUTopk) continue;
    QuerySpec spec;
    spec.semantics = s;
    spec.k = 10;
    spec.phi = 0.9;
    spec.threshold = 0.1;
    spec.prune = true;
    spec.threads = threads;
    specs.push_back(spec);
  }
  return specs;
}

KernelProbe ProbeKernels(const urank::TupleRelation& tuple_rel,
                         const urank::AttrRelation& attr_rel, int threads,
                         int reps, SpanLog* spans) {
  KernelProbe probe;
  urank::metrics::Counter& chunks =
      urank::metrics::Registry::Global().counter("urank_parallel_chunks_total");
  for (int model = 0; model < 2; ++model) {
    const bool attr = model == 1;
    for (const QuerySpec& spec : FreshRankSpecs(attr, threads)) {
      KernelEntry entry;
      entry.name = std::string(urank::ToString(spec.semantics)) +
                   (attr ? ".attr" : ".tuple");
      entry.pruned = spec.semantics == urank::RankingSemantics::kMedianRank ||
                     spec.semantics == urank::RankingSemantics::kQuantileRank;
      probe.entries.push_back(entry);
    }
  }
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t e = 0;
    for (int model = 0; model < 2; ++model) {
      const bool attr = model == 1;
      for (const QuerySpec& spec : FreshRankSpecs(attr, threads)) {
        KernelEntry& entry = probe.entries[e++];
        for (int t : {1, threads}) {
          // A fresh engine per Run: every statistic is a memo miss.
          const urank::QueryEngine engine =
              attr ? urank::QueryEngine(attr_rel) : urank::QueryEngine(tuple_rel);
          const long long chunks_before = chunks.value();
          const std::uint64_t t0 = NowNs();
          const urank::QueryResult r = engine.Run(ToRequest(spec, t));
          const std::uint64_t t1 = NowNs();
          spans->Add(t == 1 ? "engine.run.serial" : "engine.run.parallel", t0, t1);
          if (t == 1) {
            entry.ms_serial.push_back(r.stats.wall_ms);
          } else {
            entry.ms_parallel.push_back(r.stats.wall_ms);
            probe.chunks += chunks.value() - chunks_before;
          }
          entry.dp_cells = r.stats.dp_cells;
          entry.tuples_scanned = r.stats.tuples_scanned;
          entry.n = attr ? attr_rel.size() : tuple_rel.size();
          if (threads == 1) break;
        }
      }
    }
  }
  return probe;
}

std::vector<double> ProbeParse(const std::vector<std::string>& lines,
                               SpanLog* spans) {
  std::vector<double> us;
  us.reserve(lines.size());
  urank::serve::WireRequest request;
  for (const std::string& line : lines) {
    const std::uint64_t t0 = NowNs();
    urank::serve::ParseRequest(line, &request);
    const std::uint64_t t1 = NowNs();
    spans->Add("protocol.parse", t0, t1);
    us.push_back(UsSince(t0, t1));
  }
  return us;
}

ServeProbe ProbeServe(const std::vector<QueryRecord>& records,
                      const std::vector<ReferenceAnswer>& references,
                      const std::vector<RelationLog>& logs,
                      const std::vector<QuerySpec>& specs, SpanLog* spans) {
  ServeProbe probe;
  urank::serve::ResultCache cache(64ull << 20);
  std::map<std::tuple<int, int, std::uint64_t>, const ReferenceAnswer*> by_key;
  for (const ReferenceAnswer& ref : references) {
    by_key[{ref.relation, ref.query, ref.epoch}] = &ref;
    const urank::QueryRequest request =
        ToRequest(specs[static_cast<std::size_t>(ref.query)], 1);
    cache.Put(urank::serve::MakeResultCacheKey(
                  logs[static_cast<std::size_t>(ref.relation)].name, ref.epoch,
                  request.options),
              std::make_shared<const urank::RankingAnswer>(ref.result.answer));
  }
  constexpr std::size_t kMaxCalls = 20000;
  urank::serve::ServeTimings timings;
  urank::serve::JsonValue id = urank::serve::JsonValue::MakeNumber(1);
  for (const QueryRecord& rec : records) {
    if (probe.get_us.size() >= kMaxCalls) break;
    if (!rec.ok) continue;
    auto it = by_key.find({rec.relation, rec.query, rec.epoch});
    if (it == by_key.end()) continue;
    const std::string& name = logs[static_cast<std::size_t>(rec.relation)].name;
    const urank::QueryRequest request =
        ToRequest(specs[static_cast<std::size_t>(rec.query)], 1);
    const urank::serve::ResultCacheKey key =
        urank::serve::MakeResultCacheKey(name, rec.epoch, request.options);
    std::uint64_t t0 = NowNs();
    const auto hit = cache.Get(key);
    std::uint64_t t1 = NowNs();
    spans->Add("result_cache.get", t0, t1);
    probe.get_us.push_back(UsSince(t0, t1));
    if (hit == nullptr) continue;
    t0 = NowNs();
    const std::string line = urank::serve::RenderQueryResponse(
        id, name, rec.epoch, urank::serve::CacheOutcome::kHit, *hit,
        it->second->result.stats, timings);
    t1 = NowNs();
    spans->Add("protocol.render", t0, t1);
    probe.render_us.push_back(UsSince(t0, t1));
  }
  return probe;
}

std::vector<double> ProbeResolve(const urank::QueryEngine& engine, int calls,
                                 SpanLog* spans) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const std::uint64_t t0 = NowNs();
    const urank::ResolvedRelation resolved = engine.Resolve();
    const std::uint64_t t1 = NowNs();
    spans->Add("engine.resolve", t0, t1);
    us.push_back(UsSince(t0, t1));
  }
  return us;
}

SetupProbe ProbeSetup(const std::vector<std::string>& csv_paths,
                      const std::vector<bool>& attr, int reps, SpanLog* spans) {
  SetupProbe probe;
  for (int rep = 0; rep < reps; ++rep) {
    double read_ms = 0.0;
    double prepare_ms = 0.0;
    for (std::size_t i = 0; i < csv_paths.size(); ++i) {
      std::ifstream in(csv_paths[i]);
      std::string error;
      std::uint64_t t0 = NowNs();
      std::uint64_t t1 = 0;
      std::uint64_t t2 = 0;
      if (attr[i]) {
        urank::AttrRelation rel;
        urank::ReadAttrRelation(in, &rel, &error);
        t1 = NowNs();
        urank::MutableAttrRelation store(rel);
        t2 = NowNs();
      } else {
        urank::TupleRelation rel;
        urank::ReadTupleRelation(in, &rel, &error);
        t1 = NowNs();
        urank::MutableTupleRelation store(rel);
        t2 = NowNs();
      }
      spans->Add("setup.csv_read", t0, t1);
      spans->Add("setup.prepare", t1, t2);
      read_ms += NsToMs(t1 - t0);
      prepare_ms += NsToMs(t2 - t1);
    }
    probe.csv_read_ms.push_back(read_ms);
    probe.prepare_ms.push_back(prepare_ms);
  }
  return probe;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t start = s.start_ns > base ? s.start_ns - base : 0;
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(start) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
