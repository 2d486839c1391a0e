// Response bookkeeping and answer checking.
//
// During the timed phases the client only slices each response: status,
// epoch, cache outcome, the stats members, and the "ids"/"statistics" body,
// which is interned (repeated answers share one copy). After
// the timed phases a shadow store per relation — built from the same CSV and
// fed the same mutate batches in the same order — answers every (epoch,
// query) pair through QueryEngine::Run, and every interned body is parsed
// with an independent number parser and compared bit for bit.
#ifndef E2EBENCH_CHECK_H_
#define E2EBENCH_CHECK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/engine/mutable_relation.h"
#include "core/engine/query_engine.h"
#include "inputs.h"

namespace e2e {

// What one query response said (bodies by interned id).
struct QueryRecord {
  int phase = 0;          // workload-defined (traffic, memo probe)
  int relation = 0;
  int query = 0;                // index into the workload's QuerySpec list
  std::uint64_t min_epoch = 0;  // what the request demanded (0: none)
  bool answered = false;        // a response line arrived
  bool ok = false;              // status ok
  std::uint64_t epoch = 0;
  int body = -1;
  char cache = '?';  // 'h'it, 'm'iss, 'b'ypass
  bool reused = false;
  double serve_ms = 0.0;
  double queue_ms = 0.0;
  double engine_ms = 0.0;
  long long dp_cells = 0;
  long long tuples_scanned = 0;
  double rtt_ms = 0.0;      // receive - actual send
  double latency_ms = 0.0;  // receive - scheduled send
  std::string simd;
  bool wrong = false;  // set by the checker
};

struct MutateRecord {
  int relation = 0;
  int batch = 0;  // index into the relation's batch log
  bool answered = false;
  bool ok = false;
  std::uint64_t epoch = 0;
  double latency_ms = 0.0;
  bool wrong = false;  // set by the checker
};

class BodyTable {
 public:
  int Intern(std::string_view body);
  const std::string& Get(int id) const { return bodies_[static_cast<std::size_t>(id)]; }

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> bodies_;
};

// Fills `rec` from a query response line; returns false when the line is
// not a well-formed ok query response (rec->ok stays false).
bool SliceQueryResponse(std::string_view line, BodyTable* bodies,
                        QueryRecord* rec);
// Fills `rec` from a mutate response line.
bool SliceMutateResponse(std::string_view line, MutateRecord* rec);
// The "body" string of a metrics response, unescaped (Prometheus text).
std::string MetricsBody(const std::string& line);
// Value of an unlabelled Prometheus sample (0 when absent).
double PromValue(const std::string& body, const std::string& name);

// One relation as the daemon holds it: its initial contents and every
// mutate batch sent, in send order.
struct RelationLog {
  std::string name;
  bool attr = false;
  urank::TupleRelation tuple_rel;
  urank::AttrRelation attr_rel;
  std::vector<std::vector<urank::TupleMutation>> tuple_batches;
  std::vector<std::vector<urank::AttrMutation>> attr_batches;
  std::size_t batches() const {
    return attr ? attr_batches.size() : tuple_batches.size();
  }
};

// A reference answer the checker computed (reused by traced probes).
struct ReferenceAnswer {
  int relation = 0;
  int query = 0;
  std::uint64_t epoch = 0;
  urank::QueryResult result;
};

struct CheckReport {
  long long checked = 0;  // query responses compared
  std::vector<ReferenceAnswer> references;
  std::vector<std::shared_ptr<urank::QueryEngine>> engines;  // per relation, last epoch
  std::vector<std::string> problems;  // first few, for the report
};

// Replays `logs` on shadow stores and checks every answered record, marking
// `wrong` the ones that disagree with the shadow. Apply/Publish of
// the replay are recorded as "mutable.apply"/"mutable.publish" spans when
// `spans` is enabled. `corrupt` flips one bit of the first reference
// answer (the self-test's negative case).
CheckReport CheckAll(const std::vector<RelationLog>& logs,
                     const std::vector<QuerySpec>& specs,
                     std::vector<QueryRecord>* queries,
                     std::vector<MutateRecord>* mutates,
                     const BodyTable& bodies, int threads, bool corrupt,
                     SpanLog* spans);

}  // namespace e2e

#endif  // E2EBENCH_CHECK_H_
