// Everything a run feeds urankd is generated here from the workload seed:
// the relation CSVs (gen/tuple_gen, gen/attr_gen), the query set and the
// mutate batches. The same seed gives byte-identical inputs.
#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"

namespace e2e {

// One query shape as the client sends it.
struct QuerySpec {
  urank::RankingSemantics semantics = urank::RankingSemantics::kExpectedRank;
  int k = 10;
  double phi = 0.5;
  double threshold = 0.1;
  bool prune = false;
  int threads = 0;  // 0: member omitted (server default)
};

// The engine request a QuerySpec denotes (used by the shadow checker).
urank::QueryRequest ToRequest(const QuerySpec& spec, int threads);

// "semantics k=.. phi=.." label for reports.
std::string Label(const QuerySpec& spec);

// Newline-free request lines. Numbers render in shortest round-trip form,
// so the daemon parses back exactly the doubles the shadow applies.
std::string QueryLine(const std::string& relation, const QuerySpec& spec,
                      long long id, std::uint64_t min_epoch, bool bypass);
std::string TupleMutateLine(const std::string& relation,
                            const std::vector<urank::TupleMutation>& ops,
                            long long id);
std::string AttrMutateLine(const std::string& relation,
                           const std::vector<urank::AttrMutation>& ops,
                           long long id);
std::string MetricsLine(long long id);
std::string RelationsLine(long long id);

// Generates a tuple-level relation (ids 0..n-1, multi_rule_fraction 0.3),
// writes it to `path`, and returns the relation parsed back from that file
// — exactly what urankd loads.
urank::TupleRelation MakeTupleCsv(int n, std::uint64_t seed,
                                  const std::string& path);
urank::AttrRelation MakeAttrCsv(int n, int pdf_size, std::uint64_t seed,
                                const std::string& path);

// Seeded tuple-level mutate batches that are always accepted: updates keep
// a singleton-rule tuple in its own rule, inserts use fresh ids outside any
// rule, deletes remove earlier inserts — so N stays about constant.
class TupleBatchStream {
 public:
  TupleBatchStream(const urank::TupleRelation& rel, std::uint64_t seed);
  // `total` ops: up to `max_deletes` deletes of earlier inserts, then
  // updates of distinct tuples, then `inserts` inserts.
  std::vector<urank::TupleMutation> Next(int total, int inserts,
                                         int max_deletes);

 private:
  std::vector<std::pair<int, long long>> singles_;  // (id, rule key)
  std::deque<int> inserted_;
  int next_id_ = 0;
  std::mt19937_64 rng_;
};

// Seeded attribute-level batches: updates that give random tuples a fresh
// pdf drawn from a generated pool of valid pdfs.
class AttrBatchStream {
 public:
  AttrBatchStream(const urank::AttrRelation& rel, int pdf_size,
                  std::uint64_t seed);
  std::vector<urank::AttrMutation> Next(int updates);

 private:
  std::vector<int> ids_;
  urank::AttrRelation pool_;
  std::mt19937_64 rng_;
};

// Uniform double in [0, 1) from 53 random bits (platform independent).
double Uniform01(std::mt19937_64& rng);

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_
