#include "inputs.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "gen/attr_gen.h"
#include "gen/tuple_gen.h"
#include "io/csv.h"

namespace e2e {

namespace {

void AppendNumber(double value, std::string* out) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, ec == std::errc() ? static_cast<std::size_t>(ptr - buf) : 0);
}

void AppendInt(long long value, std::string* out) {
  out->append(std::to_string(value));
}

std::string Head(const char* type, long long id) {
  std::string line = "{\"v\":1,\"type\":\"";
  line += type;
  line += "\",\"id\":";
  AppendInt(id, &line);
  return line;
}

}  // namespace

double Uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

urank::QueryRequest ToRequest(const QuerySpec& spec, int threads) {
  urank::QueryRequest request;
  request.options.semantics = spec.semantics;
  request.options.k = spec.k;
  request.options.phi = spec.phi;
  request.options.threshold = spec.threshold;
  request.prune = spec.prune;
  request.parallelism.threads = threads;
  return request;
}

std::string Label(const QuerySpec& spec) {
  std::string s = urank::ToString(spec.semantics);
  s += " k=" + std::to_string(spec.k);
  if (spec.semantics == urank::RankingSemantics::kQuantileRank) {
    s += " phi=";
    AppendNumber(spec.phi, &s);
  }
  return s;
}

std::string QueryLine(const std::string& relation, const QuerySpec& spec,
                      long long id, std::uint64_t min_epoch, bool bypass) {
  std::string line = Head("query", id);
  line += ",\"relation\":\"" + relation + "\",\"semantics\":\"";
  line += urank::ToString(spec.semantics);
  line += "\",\"k\":";
  AppendInt(spec.k, &line);
  line += ",\"phi\":";
  AppendNumber(spec.phi, &line);
  line += ",\"threshold\":";
  AppendNumber(spec.threshold, &line);
  if (spec.prune) line += ",\"prune\":true";
  if (spec.threads > 0) {
    line += ",\"threads\":";
    AppendInt(spec.threads, &line);
  }
  if (min_epoch > 0) {
    line += ",\"min_epoch\":";
    AppendInt(static_cast<long long>(min_epoch), &line);
  }
  if (bypass) line += ",\"cache\":\"bypass\"";
  line += "}";
  return line;
}

std::string TupleMutateLine(const std::string& relation,
                            const std::vector<urank::TupleMutation>& ops,
                            long long id) {
  std::string line = Head("mutate", id);
  line += ",\"relation\":\"" + relation + "\",\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const urank::TupleMutation& op = ops[i];
    if (i > 0) line += ',';
    if (op.op == urank::TupleMutation::Op::kDelete) {
      line += "{\"op\":\"delete\",\"id\":";
      AppendInt(op.id, &line);
      line += '}';
      continue;
    }
    line += op.op == urank::TupleMutation::Op::kInsert ? "{\"op\":\"insert\""
                                                        : "{\"op\":\"update\"";
    line += ",\"tuple\":{\"id\":";
    AppendInt(op.tuple.id, &line);
    line += ",\"score\":";
    AppendNumber(op.tuple.score, &line);
    line += ",\"prob\":";
    AppendNumber(op.tuple.prob, &line);
    line += '}';
    if (op.rule_key >= 0) {
      line += ",\"rule\":";
      AppendInt(op.rule_key, &line);
    }
    line += '}';
  }
  line += "]}";
  return line;
}

std::string AttrMutateLine(const std::string& relation,
                           const std::vector<urank::AttrMutation>& ops,
                           long long id) {
  std::string line = Head("mutate", id);
  line += ",\"relation\":\"" + relation + "\",\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const urank::AttrMutation& op = ops[i];
    if (i > 0) line += ',';
    if (op.op == urank::AttrMutation::Op::kDelete) {
      line += "{\"op\":\"delete\",\"id\":";
      AppendInt(op.id, &line);
      line += '}';
      continue;
    }
    line += op.op == urank::AttrMutation::Op::kInsert ? "{\"op\":\"insert\""
                                                       : "{\"op\":\"update\"";
    line += ",\"tuple\":{\"id\":";
    AppendInt(op.tuple.id, &line);
    line += ",\"pdf\":[";
    for (std::size_t j = 0; j < op.tuple.pdf.size(); ++j) {
      if (j > 0) line += ',';
      line += "{\"value\":";
      AppendNumber(op.tuple.pdf[j].value, &line);
      line += ",\"prob\":";
      AppendNumber(op.tuple.pdf[j].prob, &line);
      line += '}';
    }
    line += "]}}";
  }
  line += "]}";
  return line;
}

std::string MetricsLine(long long id) { return Head("metrics", id) + "}"; }

std::string RelationsLine(long long id) {
  return Head("admin/relations", id) + "}";
}

urank::TupleRelation MakeTupleCsv(int n, std::uint64_t seed,
                                  const std::string& path) {
  urank::TupleGenConfig config;
  config.num_tuples = n;
  config.seed = seed;
  std::string error;
  if (!urank::SaveTupleRelation(urank::GenerateTupleRelation(config), path,
                                &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    std::exit(3);
  }
  urank::TupleRelation rel;
  if (!urank::LoadTupleRelation(path, &rel, &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    std::exit(3);
  }
  return rel;
}

urank::AttrRelation MakeAttrCsv(int n, int pdf_size, std::uint64_t seed,
                                const std::string& path) {
  urank::AttrGenConfig config;
  config.num_tuples = n;
  config.pdf_size = pdf_size;
  config.seed = seed;
  std::string error;
  if (!urank::SaveAttrRelation(urank::GenerateAttrRelation(config), path,
                               &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    std::exit(3);
  }
  urank::AttrRelation rel;
  if (!urank::LoadAttrRelation(path, &rel, &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    std::exit(3);
  }
  return rel;
}

TupleBatchStream::TupleBatchStream(const urank::TupleRelation& rel,
                                   std::uint64_t seed)
    : rng_(seed) {
  for (int i = 0; i < rel.size(); ++i) {
    const int rule = rel.rule_of(i);
    if (rel.rule(rule).size() == 1) singles_.push_back({rel.tuple(i).id, rule});
    next_id_ = std::max(next_id_, rel.tuple(i).id + 1);
  }
}

std::vector<urank::TupleMutation> TupleBatchStream::Next(int total,
                                                         int inserts,
                                                         int max_deletes) {
  std::vector<urank::TupleMutation> ops;
  // Deletes first, and only of tuples inserted by earlier batches.
  const int deletes =
      std::min<int>(max_deletes, static_cast<int>(inserted_.size()));
  for (int i = 0; i < deletes; ++i) {
    urank::TupleMutation op;
    op.op = urank::TupleMutation::Op::kDelete;
    op.id = inserted_.front();
    inserted_.pop_front();
    ops.push_back(op);
  }
  const int updates = std::min<int>(total - inserts - deletes,
                                    static_cast<int>(singles_.size()));
  std::unordered_set<int> touched;
  while (static_cast<int>(touched.size()) < updates) {
    const auto& [id, rule] = singles_[rng_() % singles_.size()];
    if (!touched.insert(id).second) continue;
    urank::TupleMutation op;
    op.op = urank::TupleMutation::Op::kUpdate;
    op.tuple = urank::TLTuple{id, 1000.0 * Uniform01(rng_),
                              0.2 + 0.8 * Uniform01(rng_)};
    op.rule_key = rule;
    ops.push_back(op);
  }
  std::vector<int> fresh;
  for (int i = 0; i < inserts; ++i) {
    urank::TupleMutation op;
    op.op = urank::TupleMutation::Op::kInsert;
    op.tuple = urank::TLTuple{next_id_++, 1000.0 * Uniform01(rng_),
                              0.2 + 0.8 * Uniform01(rng_)};
    fresh.push_back(op.tuple.id);
    ops.push_back(op);
  }
  inserted_.insert(inserted_.end(), fresh.begin(), fresh.end());
  return ops;
}

AttrBatchStream::AttrBatchStream(const urank::AttrRelation& rel, int pdf_size,
                                 std::uint64_t seed)
    : rng_(seed) {
  for (const urank::AttrTuple& t : rel.tuples()) ids_.push_back(t.id);
  urank::AttrGenConfig config;
  config.num_tuples = 4096;
  config.pdf_size = pdf_size;
  config.seed = seed ^ 0x9e3779b97f4a7c15ull;
  pool_ = urank::GenerateAttrRelation(config);
}

std::vector<urank::AttrMutation> AttrBatchStream::Next(int updates) {
  std::vector<urank::AttrMutation> ops;
  updates = std::min<int>(updates, static_cast<int>(ids_.size()));
  std::unordered_set<int> touched;
  while (static_cast<int>(touched.size()) < updates) {
    const int id = ids_[rng_() % ids_.size()];
    if (!touched.insert(id).second) continue;
    urank::AttrMutation op;
    op.op = urank::AttrMutation::Op::kUpdate;
    op.tuple.id = id;
    op.tuple.pdf = pool_.tuple(static_cast<int>(rng_() % pool_.size())).pdf;
    ops.push_back(op);
  }
  return ops;
}

}  // namespace e2e
