#include "check.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <map>

#include "serve/json.h"

namespace e2e {

int BodyTable::Intern(std::string_view body) {
  auto it = index_.find(std::string(body));
  if (it != index_.end()) return it->second;
  const int id = static_cast<int>(bodies_.size());
  bodies_.emplace_back(body);
  index_.emplace(bodies_.back(), id);
  return id;
}

namespace {

// Position just past `key` in `line` (searching from `from`), or npos.
std::size_t After(std::string_view line, std::string_view key,
                  std::size_t from = 0) {
  const std::size_t at = line.find(key, from);
  return at == std::string_view::npos ? at : at + key.size();
}

template <typename T>
bool NumberAt(std::string_view line, std::size_t pos, T* out) {
  if (pos == std::string_view::npos || pos >= line.size()) return false;
  const auto [ptr, ec] =
      std::from_chars(line.data() + pos, line.data() + line.size(), *out);
  return ec == std::errc();
}

template <typename T>
bool Member(std::string_view line, std::string_view key, T* out,
            std::size_t from = 0) {
  return NumberAt(line, After(line, key, from), out);
}

bool StatusOk(std::string_view line) {
  const std::size_t at = After(line, "\"status\":\"");
  return at != std::string_view::npos && line.substr(at, 3) == "ok\"";
}

// Independent parse of `"ids":[...],"statistics":[...]`.
struct ParsedBody {
  std::vector<long long> ids;
  std::vector<double> stats;
  std::vector<bool> null;
};

bool ParseBody(std::string_view body, ParsedBody* out) {
  std::size_t pos = After(body, "\"ids\":[");
  if (pos == std::string_view::npos) return false;
  while (pos < body.size() && body[pos] != ']') {
    long long id = 0;
    const auto [ptr, ec] =
        std::from_chars(body.data() + pos, body.data() + body.size(), id);
    if (ec != std::errc()) return false;
    out->ids.push_back(id);
    pos = static_cast<std::size_t>(ptr - body.data());
    if (pos < body.size() && body[pos] == ',') ++pos;
  }
  pos = After(body, "\"statistics\":[", pos);
  if (pos == std::string_view::npos) return false;
  while (pos < body.size() && body[pos] != ']') {
    if (body.substr(pos, 4) == "null") {
      out->stats.push_back(0.0);
      out->null.push_back(true);
      pos += 4;
    } else {
      double v = 0.0;
      const auto [ptr, ec] =
          std::from_chars(body.data() + pos, body.data() + body.size(), v);
      if (ec != std::errc()) return false;
      out->stats.push_back(v);
      out->null.push_back(false);
      pos = static_cast<std::size_t>(ptr - body.data());
    }
    if (pos < body.size() && body[pos] == ',') ++pos;
  }
  return pos < body.size();
}

bool SameAnswer(std::string_view body, const urank::RankingAnswer& expected) {
  ParsedBody got;
  if (!ParseBody(body, &got)) return false;
  if (got.ids.size() != expected.ids.size() ||
      got.stats.size() != expected.statistics.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.ids.size(); ++i) {
    if (got.ids[i] != expected.ids[i]) return false;
  }
  for (std::size_t i = 0; i < got.stats.size(); ++i) {
    const double want = expected.statistics[i];
    if (!std::isfinite(want)) {
      if (!got.null[i]) return false;
      continue;
    }
    if (got.null[i] ||
        std::memcmp(&got.stats[i], &want, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SliceQueryResponse(std::string_view line, BodyTable* bodies,
                        QueryRecord* rec) {
  rec->answered = true;
  if (!StatusOk(line)) return false;
  if (!Member(line, "\"epoch\":", &rec->epoch)) return false;
  const std::size_t cache = After(line, "\"cache\":\"");
  if (cache == std::string_view::npos) return false;
  rec->cache = line[cache];
  const std::size_t ids = line.find("\"ids\":");
  const std::size_t stats = line.find(",\"stats\":{", ids);
  if (ids == std::string_view::npos || stats == std::string_view::npos) {
    return false;
  }
  rec->body = bodies->Intern(line.substr(ids, stats - ids));
  Member(line, "\"serve_ms\":", &rec->serve_ms, stats);
  Member(line, "\"queue_ms\":", &rec->queue_ms, stats);
  Member(line, "\"engine_ms\":", &rec->engine_ms, stats);
  Member(line, "\"dp_cells\":", &rec->dp_cells, stats);
  Member(line, "\"tuples_scanned\":", &rec->tuples_scanned, stats);
  rec->reused = line.find("\"reused_cache\":true", stats) != std::string_view::npos;
  const std::size_t simd = After(line, "\"simd_target\":\"", stats);
  if (simd != std::string_view::npos) {
    const std::size_t end = line.find('"', simd);
    if (end != std::string_view::npos) {
      std::string_view name = line.substr(simd, end - simd);
      if (rec->simd != name) rec->simd.assign(name);
    }
  }
  rec->ok = true;
  return true;
}

bool SliceMutateResponse(std::string_view line, MutateRecord* rec) {
  rec->answered = true;
  rec->ok = StatusOk(line) && Member(line, "\"epoch\":", &rec->epoch);
  return rec->ok;
}

std::string MetricsBody(const std::string& line) {
  urank::serve::JsonValue doc;
  std::string error;
  if (!urank::serve::ParseJson(line, &doc, &error)) return "";
  const urank::serve::JsonValue* body = doc.Find("body");
  return body != nullptr && body->is_string() ? body->string_value() : "";
}

double PromValue(const std::string& body, const std::string& name) {
  std::size_t at = 0;
  while ((at = body.find(name + " ", at)) != std::string::npos) {
    if (at == 0 || body[at - 1] == '\n') {
      return std::atof(body.c_str() + at + name.size() + 1);
    }
    at += name.size();
  }
  return 0.0;
}

CheckReport CheckAll(const std::vector<RelationLog>& logs,
                     const std::vector<QuerySpec>& specs,
                     std::vector<QueryRecord>* queries,
                     std::vector<MutateRecord>* mutates,
                     const BodyTable& bodies, int threads, bool corrupt,
                     SpanLog* spans) {
  CheckReport report;
  bool corrupted = false;
  for (int r = 0; r < static_cast<int>(logs.size()); ++r) {
    const RelationLog& log = logs[static_cast<std::size_t>(r)];
    std::map<std::uint64_t, std::vector<std::size_t>> by_epoch;
    for (std::size_t i = 0; i < queries->size(); ++i) {
      if ((*queries)[i].relation == r && (*queries)[i].ok) {
        by_epoch[(*queries)[i].epoch].push_back(i);
      }
    }
    std::vector<MutateRecord*> acks(log.batches(), nullptr);
    for (MutateRecord& m : *mutates) {
      if (m.relation == r) acks[static_cast<std::size_t>(m.batch)] = &m;
    }

    std::shared_ptr<urank::MutableTupleRelation> tuple_store;
    std::shared_ptr<urank::MutableAttrRelation> attr_store;
    std::shared_ptr<urank::QueryEngine> engine;
    if (log.attr) {
      attr_store = std::make_shared<urank::MutableAttrRelation>(log.attr_rel);
      engine = std::make_shared<urank::QueryEngine>(attr_store);
    } else {
      tuple_store = std::make_shared<urank::MutableTupleRelation>(log.tuple_rel);
      engine = std::make_shared<urank::QueryEngine>(tuple_store);
    }

    auto answer_epoch = [&](std::uint64_t epoch) {
      auto it = by_epoch.find(epoch);
      if (it == by_epoch.end()) return;
      std::map<int, std::size_t> ref_of_query;
      std::map<std::pair<std::size_t, int>, bool> verdicts;
      for (std::size_t idx : it->second) {
        QueryRecord& rec = (*queries)[idx];
        ++report.checked;
        if (rec.min_epoch > epoch) {
          rec.wrong = true;
          if (report.problems.size() < 5) {
            report.problems.push_back("answer at epoch " + std::to_string(epoch) +
                                      " below its min_epoch on " + log.name);
          }
          continue;
        }
        auto ref = ref_of_query.find(rec.query);
        if (ref == ref_of_query.end()) {
          ReferenceAnswer answer;
          answer.relation = r;
          answer.query = rec.query;
          answer.epoch = epoch;
          answer.result = engine->Run(ToRequest(
              specs[static_cast<std::size_t>(rec.query)], threads));
          if (corrupt && !corrupted) {
            std::vector<double>& s = answer.result.answer.statistics;
            if (!s.empty()) {
              std::uint64_t bits = 0;
              std::memcpy(&bits, &s[0], sizeof(bits));
              bits ^= 1;
              std::memcpy(&s[0], &bits, sizeof(bits));
            } else {
              answer.result.answer.ids.push_back(-7);
            }
            corrupted = true;
          }
          report.references.push_back(std::move(answer));
          ref = ref_of_query.emplace(rec.query, report.references.size() - 1).first;
        }
        const ReferenceAnswer& want = report.references[ref->second];
        if (!want.result.status.ok() || want.result.stats.epoch != epoch) {
          rec.wrong = true;
          continue;
        }
        const auto key = std::make_pair(ref->second, rec.body);
        auto verdict = verdicts.find(key);
        if (verdict == verdicts.end()) {
          verdict = verdicts.emplace(key, SameAnswer(bodies.Get(rec.body),
                                                     want.result.answer)).first;
        }
        if (!verdict->second) {
          rec.wrong = true;
          if (report.problems.size() < 5) {
            report.problems.push_back(
                "answer differs from the reference: relation " + log.name +
                " epoch " + std::to_string(epoch) + " query " +
                Label(specs[static_cast<std::size_t>(rec.query)]));
          }
        }
      }
      by_epoch.erase(it);
    };

    answer_epoch(engine->Resolve().epoch);
    for (std::size_t b = 0; b < log.batches(); ++b) {
      std::string error;
      const std::uint64_t t0 = NowNs();
      const bool ok = log.attr ? attr_store->Apply(log.attr_batches[b], &error)
                               : tuple_store->Apply(log.tuple_batches[b], &error);
      const std::uint64_t t1 = NowNs();
      const std::uint64_t epoch =
          log.attr ? attr_store->Publish().epoch : tuple_store->Publish().epoch;
      const std::uint64_t t2 = NowNs();
      spans->Add("mutable.apply", t0, t1);
      spans->Add("mutable.publish", t1, t2);
      MutateRecord* ack = acks[b];
      if (ack == nullptr || !ack->answered || ack->ok != ok ||
          (ok && ack->epoch != epoch)) {
        if (ack != nullptr) ack->wrong = true;
        if (report.problems.size() < 5) {
          report.problems.push_back("mutate batch " + std::to_string(b) +
                                    " on " + log.name +
                                    " disagrees with the shadow store");
        }
      }
      answer_epoch(epoch);
    }
    for (const auto& [epoch, idxs] : by_epoch) {
      report.checked += static_cast<long long>(idxs.size());
      for (std::size_t idx : idxs) (*queries)[idx].wrong = true;
      if (report.problems.size() < 5) {
        report.problems.push_back("responses at epoch " + std::to_string(epoch) +
                                  " of " + log.name +
                                  ", which the shadow never published");
      }
    }
    report.engines.push_back(engine);
  }
  return report;
}

}  // namespace e2e
