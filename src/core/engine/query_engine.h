// QueryEngine: the query surface of the library. Every ranking semantics
// on either model runs through Run(const QueryRequest&) over prepared
// state, with an explicit lifecycle:
//
//   1. Prepare(relation)  -> shared_ptr<const Prepared*Relation>
//   2. QueryEngine engine(prepared);
//   3. engine.Run(request) -> QueryResult{status, answer, stats}
//
// Preparation is paid once per relation; every Run against the same engine
// reuses the prepared sort orders and the memoized statistic vectors, so a
// second query — even with a different k — is a selection over cached
// state. RunBatch evaluates many queries concurrently over that shared
// read-only state.
//
// Error taxonomy (recoverable — Run returns a status instead of aborting):
//   kOk                      — query executed; answer/stats are valid.
//   kInvalidK                — options.k < 1 (every semantics needs k), or
//                              k > N on a non-empty relation of N tuples
//                              (an empty relation answers any k >= 1 with
//                              an empty top-k).
//   kInvalidPhi              — kQuantileRank with phi outside (0,1].
//   kInvalidThreshold        — kPTk with threshold outside (0,1].
//   kWorldCountNotEnumerable — kUTopk on an attribute-level relation whose
//                              world count exceeds kMaxEnumerableWorlds
//                              (the enumeration would not terminate in any
//                              reasonable time).
// Malformed *relations* (NaN scores, unnormalized pdfs, bad rule indices)
// are still hard contract violations caught by URANK_CHECK at model
// construction — the status codes cover per-query parameters only, which
// is what a long-lived service wants to survive.
//
// Thread-safety: a QueryEngine holds only shared_ptr<const ...> prepared
// state, which is internally synchronized (see prepared_relation.h). Run
// and RunBatch are const and may be called from any number of threads.

#ifndef URANK_CORE_ENGINE_QUERY_ENGINE_H_
#define URANK_CORE_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine/mutable_relation.h"
#include "core/engine/prepared_relation.h"
#include "core/query.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "util/parallel.h"

namespace urank {

// The status taxonomy is also the wire protocol's error contract
// (docs/SERVING.md): each code has a stable numeric wire value (the
// enumerator value below) and a stable identifier-style name (ToString /
// FromString). New codes append at the end; values and names are never
// reused or renumbered once shipped.
enum class QueryStatusCode {
  kOk = 0,
  kInvalidK = 1,
  kInvalidPhi = 2,
  kInvalidThreshold = 3,
  kWorldCountNotEnumerable = 4,
  // Serve-layer codes, produced by urankd (src/serve/) rather than by
  // QueryEngine::Run itself:
  //   kInvalidRequest   — the request line was not a well-formed protocol
  //                       message (bad JSON, wrong version, unknown type or
  //                       semantics name, missing required field).
  //   kUnknownRelation  — the request names a relation the server has not
  //                       loaded.
  //   kOverloaded       — admission control shed the request: the bounded
  //                       queue was full (or the server is draining).
  //   kDeadlineExceeded — the request's deadline expired before execution
  //                       started; it was shed without running.
  kInvalidRequest = 5,
  kUnknownRelation = 6,
  kOverloaded = 7,
  kDeadlineExceeded = 8,
  //   kEpochNotAvailable — the request demanded min_epoch newer than the
  //                        latest published epoch of the relation it ran
  //                        against (read-your-writes gating for mutable
  //                        relations; see QueryRequest::min_epoch).
  kEpochNotAvailable = 9,
};

// Number of QueryStatusCode members. Wire values are dense: every integer
// in [0, kQueryStatusCodeCount) maps to exactly one code, which is what
// the protocol round-trip test iterates over.
inline constexpr int kQueryStatusCodeCount = 10;

// Stable identifier-style name ("ok", "invalid-k", ...).
const char* ToString(QueryStatusCode code);

// Inverse of ToString. Returns false (leaving `*out` untouched) when
// `name` is not a known status name.
bool FromString(std::string_view name, QueryStatusCode* out);

// The stable numeric value `code` travels as on the wire.
int WireValue(QueryStatusCode code);

// Inverse of WireValue. Returns false (leaving `*out` untouched) when
// `value` maps to no code.
bool FromWireValue(int value, QueryStatusCode* out);

struct QueryStatus {
  QueryStatusCode code = QueryStatusCode::kOk;
  // Human-readable detail; empty for kOk. Messages for invalid parameters
  // mirror the URANK_CHECK wording of the per-semantics functions ("k must
  // be >= 1", "phi must be in (0,1]", ...).
  std::string message;

  bool ok() const { return code == QueryStatusCode::kOk; }

  static QueryStatus Ok() { return {}; }
};

// Per-query execution statistics.
struct QueryStats {
  // Wall-clock time of the Run call (validation + dispatch + answer
  // assembly), in milliseconds.
  double wall_ms = 0.0;
  // True when the statistic vector this query ranks by was already in the
  // prepared cache (or, for attribute-level expected scores, built eagerly
  // at preparation), so no per-tuple recomputation ran. U-Topk answers are
  // k-specific DPs and are never memoized: always false there.
  bool reused_cache = false;
  // Coarse count of dynamic-program cells (or equivalent inner-loop
  // updates) this query touched; 0 when served from cache. The per-
  // semantics formulas are documented in docs/API.md — the number is for
  // relative comparison between queries, not a precise FLOP count.
  long long dp_cells = 0;
  // Tuples whose statistic required no fresh computation: the full
  // relation size on a cache hit, 0 otherwise.
  long long tuples_pruned = 0;
  // Worker slots the statistic computation actually used (the calling
  // thread included): 1 for serial execution, a cache hit, or a semantics
  // with no parallel kernel.
  int threads_used = 1;
  // Distinct NUMA-node worker groups those slots came from: 1 for serial
  // execution, a cache hit, or a single-node machine.
  int nodes_used = 1;
  // True when EffectiveParallelism reduced the request's resolved thread
  // count — currently only the kNodeLocal clamp to one node's core count.
  bool threads_clamped = false;
  // High-water scratch bytes the parallel kernels' per-worker arenas held;
  // 0 when no arena-backed kernel ran (cache hit, serial-only semantics).
  std::uint64_t arena_bytes = 0;
  // The SIMD dispatch target the vector kernels ran on ("scalar", "avx2",
  // "avx512", "neon") — ToString(ActiveSimdTarget()) at Run time. Static
  // storage; never null. See docs/PERFORMANCE.md for the determinism
  // contract per target.
  const char* simd_target = "scalar";
  // Tuples whose statistic the pruned top-k kernel actually evaluated
  // before the stopping bound fired; 0 when no pruned kernel ran (prune
  // not requested, a semantics that ignores it, or a cache hit).
  long long tuples_scanned = 0;
  // Stream position at which the pruned scan stopped — into the rank order
  // (score desc, index asc) for tuple-level runs, into the expected-score
  // order for attribute-level ones: the relation size when the bound never
  // fired, -1 when no pruned kernel ran. tuples_scanned <=
  // prune_stop_position always.
  long long prune_stop_position = -1;
  // The epoch of the snapshot this query actually ran against: 0 for an
  // engine over static prepared state, the store's published epoch number
  // for a mutable-backed engine. A whole RunBatch reports one epoch — the
  // snapshot is resolved once per batch.
  std::uint64_t epoch = 0;
};

struct QueryResult {
  QueryStatus status;
  // Valid only when status.ok(); empty otherwise.
  RankingAnswer answer;
  QueryStats stats;
};

// Serve-layer result-cache policy carried by a request. The engine's own
// statistic memo (prepared_relation.h) is unaffected: kBypass means the
// urankd result cache performs neither lookup nor insert for this request.
enum class CacheMode {
  kDefault = 0,
  kBypass = 1,
};

// The one request surface shared by in-process callers and the wire
// protocol: src/serve/protocol.h serializes exactly this struct (plus a
// routing envelope), so a request built in code and a request parsed off a
// socket flow through the same Run path. Parallelism is part of the
// request, not engine state.
struct QueryRequest {
  RankingQueryOptions options;
  // Intra-query parallelism applied to the DP kernels behind statistic-
  // cache misses. Affects execution schedule and QueryStats only — answers
  // are bit-identical for any setting.
  ParallelismOptions parallelism;
  // End-to-end budget in milliseconds, measured from admission. <= 0 means
  // no deadline. Enforced at admission/dequeue time by the serving layer
  // (urankd sheds an expired request with kDeadlineExceeded instead of
  // starting it); a query that has begun executing is never interrupted,
  // and the in-process Run never sheds (its queue wait is zero).
  double deadline_ms = 0.0;
  // Serve-layer result-cache policy (see CacheMode).
  CacheMode cache_mode = CacheMode::kDefault;
  // Opt-in early stopping: run the exact pruned top-k kernel, which scans
  // tuples in stream order and stops once the remaining suffix provably
  // cannot enter the answer. Honoured for tuple-level expected rank
  // (T-ERank-Prune), median and quantile rank, PT-k, Global-Topk and
  // U-kRanks (scanned in rank order), and for attribute-level median and
  // quantile rank (scanned in expected-score order). Answers are
  // bit-identical to the unpruned kernels; only QueryStats
  // (tuples_scanned, prune_stop_position, dp_cells, threads_used) and the
  // execution schedule change. A pruned run computes a top-k selection,
  // not the full statistic vector, so it never populates the statistic
  // memo — and when the memo already holds the vector, the cached
  // (cheaper) path is served instead. Ignored by U-Topk, expected score,
  // and attribute-level expected rank, PT-k, Global-Topk and U-kRanks.
  bool prune = false;
  // Minimum epoch this query may run against (read-your-writes gating for
  // mutable-backed engines): when the engine's latest published epoch is
  // older, Run fails with kEpochNotAvailable instead of answering from a
  // stale snapshot. 0 (the default) accepts any epoch; engines over
  // static prepared state report epoch 0, so any positive min_epoch fails
  // there.
  std::uint64_t min_epoch = 0;
};

// The snapshot one Run (or one whole RunBatch) executes against,
// resolved exactly once at entry: a consistent epoch even while writers
// publish concurrently. Exactly one of attr/tuple is non-null.
struct ResolvedRelation {
  std::shared_ptr<const PreparedAttrRelation> attr;
  std::shared_ptr<const PreparedTupleRelation> tuple;
  std::uint64_t epoch = 0;
};

// Runs ranking queries against one prepared relation (either model).
// Cheap to copy: holds only shared pointers to immutable prepared state.
class QueryEngine {
 public:
  // Builds the shared per-relation state (sort orders, prefix sums, value
  // universe, id index). The relation is copied into the prepared object.
  static std::shared_ptr<const PreparedAttrRelation> Prepare(
      AttrRelation rel);
  static std::shared_ptr<const PreparedTupleRelation> Prepare(
      TupleRelation rel);

  // Wraps already-prepared state (shareable across engines and threads).
  explicit QueryEngine(std::shared_ptr<const PreparedAttrRelation> prepared);
  explicit QueryEngine(std::shared_ptr<const PreparedTupleRelation> prepared);

  // Wraps a mutable store: every Run resolves the store's latest
  // published snapshot at entry (and a RunBatch resolves it once for the
  // whole batch), so a query always executes against one consistent
  // epoch while writers mutate and publish concurrently. QueryStats
  // reports the epoch served.
  explicit QueryEngine(std::shared_ptr<MutableAttrRelation> store);
  explicit QueryEngine(std::shared_ptr<MutableTupleRelation> store);

  // Convenience: prepare-and-wrap in one step.
  explicit QueryEngine(AttrRelation rel);
  explicit QueryEngine(TupleRelation rel);

  // Checks the query's parameters against the taxonomy above without
  // executing anything. Run calls this first.
  QueryStatus Validate(const RankingQueryOptions& query) const;

  // Executes one request. Never aborts on bad query parameters — check
  // result.status. Safe to call concurrently. deadline_ms and cache_mode
  // are serving-layer concerns (see QueryRequest); the in-process path
  // carries them through untouched.
  QueryResult Run(const QueryRequest& request) const;

  // Executes `requests` over the shared prepared state on the process-wide
  // worker pool with up to `threads` workers (threads <= 0 selects the
  // hardware concurrency). Results are in input order and identical to
  // running each request alone — memoized statistics are computed once
  // under single-flight discipline no matter how many requests need them.
  // Per-request intra-query parallelism composes with this: worker threads
  // running a kernel participate in draining its chunks, so nesting cannot
  // deadlock.
  std::vector<QueryResult> RunBatch(const std::vector<QueryRequest>& requests,
                                    int threads = 0) const;

  // The snapshot a Run entered now would execute against: the static
  // prepared state, or the mutable store's latest published epoch.
  ResolvedRelation Resolve() const;

  // The static prepared state this engine wraps; both null for a
  // mutable-backed engine (use Resolve()).
  const std::shared_ptr<const PreparedAttrRelation>& attr() const {
    return attr_;
  }
  const std::shared_ptr<const PreparedTupleRelation>& tuple() const {
    return tuple_;
  }

  // The mutable store this engine wraps; both null for a static engine.
  const std::shared_ptr<MutableAttrRelation>& mutable_attr() const {
    return mutable_attr_;
  }
  const std::shared_ptr<MutableTupleRelation>& mutable_tuple() const {
    return mutable_tuple_;
  }

 private:
  QueryStatus ValidateResolved(const RankingQueryOptions& query,
                               const ResolvedRelation& resolved) const;
  QueryResult RunResolved(const QueryRequest& request,
                          const ResolvedRelation& resolved) const;

  std::shared_ptr<const PreparedAttrRelation> attr_;
  std::shared_ptr<const PreparedTupleRelation> tuple_;
  std::shared_ptr<MutableAttrRelation> mutable_attr_;
  std::shared_ptr<MutableTupleRelation> mutable_tuple_;
};

}  // namespace urank

#endif  // URANK_CORE_ENGINE_QUERY_ENGINE_H_
