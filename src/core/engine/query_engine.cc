#include "core/engine/query_engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/expected_rank_attr.h"
#include "core/expected_rank_tuple.h"
#include "core/quantile_rank.h"
#include "core/ranking.h"
#include "core/semantics/expected_score.h"
#include "core/semantics/global_topk.h"
#include "core/semantics/pt_k.h"
#include "core/semantics/semantics.h"
#include "core/semantics/u_kranks.h"
#include "core/semantics/u_topk.h"
#include "core/engine/trace.h"
#include "model/possible_worlds.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/simd.h"

namespace urank {
namespace {

// Engine-level metrics (docs/OBSERVABILITY.md has the catalogue). Resolved
// once; QueryStats is a per-call view over the same measurements.
struct EngineMetrics {
  metrics::Counter& queries;
  metrics::Counter& errors;
  metrics::Counter& batches;
  metrics::Counter& dp_cells;
  metrics::Histogram& query_latency;
  metrics::Histogram& prepare_latency;
  metrics::Gauge& arena_bytes;

  static const EngineMetrics& Get() {
    metrics::Registry& r = metrics::Registry::Global();
    static const EngineMetrics m{
        r.counter("urank_engine_queries_total"),
        r.counter("urank_engine_query_errors_total"),
        r.counter("urank_engine_batches_total"),
        r.counter("urank_engine_dp_cells_total"),
        r.histogram("urank_engine_query_latency_us"),
        r.histogram("urank_engine_prepare_latency_us"),
        r.gauge("urank_kernel_arena_bytes")};
    return m;
  }
};

RankingAnswer FromRanked(const std::vector<RankedTuple>& ranked) {
  RankingAnswer answer;
  answer.ids.reserve(ranked.size());
  answer.statistics.reserve(ranked.size());
  for (const RankedTuple& rt : ranked) {
    answer.ids.push_back(rt.id);
    answer.statistics.push_back(rt.statistic);
  }
  return answer;
}

// Probability-carrying answers: ids in rank order plus the per-id
// probability looked up through the prepared id index.
template <typename Prepared>
RankingAnswer WithProbabilities(std::vector<int> ids,
                                const std::vector<double>& probs_by_position,
                                const Prepared& prepared) {
  RankingAnswer answer;
  answer.statistics.reserve(ids.size());
  for (int id : ids) {
    const int pos = prepared.PositionOfId(id);
    answer.statistics.push_back(
        pos >= 0 ? probs_by_position[static_cast<size_t>(pos)] : 0.0);
  }
  answer.ids = std::move(ids);
  return answer;
}

int RelationSize(const ResolvedRelation& resolved) {
  return resolved.attr != nullptr ? resolved.attr->size()
                                  : resolved.tuple->size();
}

RankingAnswer FromUTopK(const UTopKAnswer& utopk) {
  RankingAnswer answer;
  answer.ids = utopk.ids;
  answer.statistics.assign(utopk.ids.size(), utopk.probability);
  return answer;
}

// The memo-table key a query's ranking statistic lives under, used to
// report cache reuse. U-Topk and attribute-level expected scores have no
// key (never memoized / eagerly built) — both are handled by the callers.
StatKey KeyFor(const RankingQueryOptions& q) {
  switch (q.semantics) {
    case RankingSemantics::kExpectedRank:
      return {StatKey::Kind::kExpectedRank, 0, 0.0, q.ties};
    case RankingSemantics::kMedianRank:
      return {StatKey::Kind::kQuantileRank, 0, 0.5, q.ties};
    case RankingSemantics::kQuantileRank:
      return {StatKey::Kind::kQuantileRank, 0, q.phi, q.ties};
    case RankingSemantics::kUKRanks:
      return {StatKey::Kind::kUKRanksWinners, q.k, 0.0, q.ties};
    case RankingSemantics::kPTk:
    case RankingSemantics::kGlobalTopk:
      return {StatKey::Kind::kTopKProbability, q.k, 0.0, q.ties};
    case RankingSemantics::kExpectedScore:
      return {StatKey::Kind::kExpectedScore, 0, 0.0,
              TiePolicy::kBreakByIndex};
    case RankingSemantics::kUTopk:
      break;
  }
  return {};
}

// Coarse dynamic-program cell counts for a cold run of each semantics;
// formulas documented in docs/API.md.
long long AttrDpCells(const PreparedAttrRelation& p,
                      const RankingQueryOptions& q) {
  const long long n = p.size();
  switch (q.semantics) {
    case RankingSemantics::kExpectedRank:
      return static_cast<long long>(p.universe().values.size()) + n;
    case RankingSemantics::kExpectedScore:
      return n;
    case RankingSemantics::kUTopk:
      return p.NumWorlds();
    default:
      return n * n;  // Every other semantics is rank-matrix backed.
  }
}

// `n` is the relation size for a full run and tuples_scanned for a pruned
// one.
long long TupleDpCells(long long n, long long m,
                       const RankingQueryOptions& q) {
  switch (q.semantics) {
    case RankingSemantics::kExpectedRank:
    case RankingSemantics::kExpectedScore:
      return n;
    case RankingSemantics::kMedianRank:
    case RankingSemantics::kQuantileRank:
      return 2 * n * (m + 1);
    case RankingSemantics::kUTopk:
      return n * (q.k + 1);
    default:
      return n * (m + 1);  // Positional-pmf backed semantics.
  }
}

// The dispatchers run the statistic-producing kernel under `par` (which
// warms the memo cache and reports what it did into `report`), then
// assemble the answer through the per-semantics top-k selection over the
// warmed cache — so answers are bit-identical for any ParallelismOptions.
// Semantics without a parallel kernel (linear scans, world enumeration)
// run serially and leave `report` untouched.
// `prune` is set only on statistic-cache misses with QueryRequest::prune
// for a semantics Prunes() accepts: the pruned top-k kernels return the
// identical answer while scanning a prefix of the stream order, and
// record how far they got into `stats`.
bool Prunes(bool attr, RankingSemantics s) {
  switch (s) {
    case RankingSemantics::kMedianRank:
    case RankingSemantics::kQuantileRank:
      return true;
    case RankingSemantics::kExpectedRank:
    case RankingSemantics::kPTk:
    case RankingSemantics::kGlobalTopk:
    case RankingSemantics::kUKRanks:
      return !attr;
    case RankingSemantics::kUTopk:
    case RankingSemantics::kExpectedScore:
      return false;
  }
  return false;
}

RankingAnswer FromPruned(PrunedTopKResult pruned, QueryStats* stats) {
  stats->tuples_scanned = pruned.tuples_scanned;
  stats->prune_stop_position = pruned.prune_stop_position;
  return FromRanked(pruned.topk);
}

RankingAnswer RunAttr(const PreparedAttrRelation& p,
                      const RankingQueryOptions& q,
                      const ParallelismOptions& par, KernelReport* report,
                      bool prune, QueryStats* stats) {
  switch (q.semantics) {
    case RankingSemantics::kExpectedRank:
      return FromRanked(AttrExpectedRankTopK(p, q.k, q.ties, par, report));
    case RankingSemantics::kMedianRank:
    case RankingSemantics::kQuantileRank: {
      const double phi =
          q.semantics == RankingSemantics::kMedianRank ? 0.5 : q.phi;
      if (prune) {
        return FromPruned(
            AttrQuantileRankTopKPrune(p, q.k, phi, q.ties, par, report),
            stats);
      }
      AttrQuantileRanks(p, phi, q.ties, par, report);
      return FromRanked(AttrQuantileRankTopK(p, q.k, phi, q.ties));
    }
    case RankingSemantics::kUTopk:
      return FromUTopK(AttrUTopK(p, q.k));
    case RankingSemantics::kUKRanks: {
      RankingAnswer answer;
      answer.ids = AttrUKRanks(p, q.k, q.ties, par, report);
      return answer;
    }
    case RankingSemantics::kPTk: {
      // Computed first so the selection below hits the warmed cache.
      const std::vector<double> probs =
          AttrTopKProbabilities(p, q.k, q.ties, par, report);
      return WithProbabilities(AttrPTk(p, q.k, q.threshold, q.ties), probs,
                               p);
    }
    case RankingSemantics::kGlobalTopk: {
      const std::vector<double> probs =
          AttrTopKProbabilities(p, q.k, q.ties, par, report);
      return WithProbabilities(AttrGlobalTopK(p, q.k, q.ties), probs, p);
    }
    case RankingSemantics::kExpectedScore:
      return FromRanked(AttrExpectedScoreTopK(p, q.k));
  }
  URANK_CHECK_MSG(false, "unknown semantics");
  return {};
}

// The pruned tuple-level top-k of `q` (Prunes(false, q.semantics)).
PrunedTopKResult RunTuplePruned(const PreparedTupleRelation& p,
                                const RankingQueryOptions& q) {
  switch (q.semantics) {
    case RankingSemantics::kExpectedRank:
      return TupleExpectedRankTopKPrune(p, q.k, q.ties);
    case RankingSemantics::kMedianRank:
      return TupleQuantileRankTopKPrune(p, q.k, 0.5, q.ties);
    case RankingSemantics::kQuantileRank:
      return TupleQuantileRankTopKPrune(p, q.k, q.phi, q.ties);
    case RankingSemantics::kPTk:
      return TuplePTkPrune(p, q.k, q.threshold, q.ties);
    case RankingSemantics::kGlobalTopk:
      return TupleGlobalTopKPrune(p, q.k, q.ties);
    case RankingSemantics::kUKRanks:
      return TupleUKRanksPrune(p, q.k, q.ties);
    case RankingSemantics::kUTopk:
    case RankingSemantics::kExpectedScore:
      break;
  }
  URANK_CHECK_MSG(false, "semantics has no pruned kernel");
  return {};
}

RankingAnswer RunTuple(const PreparedTupleRelation& p,
                       const RankingQueryOptions& q,
                       const ParallelismOptions& par, KernelReport* report,
                       bool prune, QueryStats* stats) {
  if (prune) {
    RankingAnswer answer = FromPruned(RunTuplePruned(p, q), stats);
    // U-kRanks answers carry winner ids only, like the unpruned path.
    if (q.semantics == RankingSemantics::kUKRanks) answer.statistics.clear();
    return answer;
  }
  switch (q.semantics) {
    case RankingSemantics::kExpectedRank:
      return FromRanked(TupleExpectedRankTopK(p, q.k, q.ties, par, report));
    case RankingSemantics::kMedianRank:
    case RankingSemantics::kQuantileRank: {
      const double phi =
          q.semantics == RankingSemantics::kMedianRank ? 0.5 : q.phi;
      TupleQuantileRanks(p, phi, q.ties, par, report);
      return FromRanked(TupleQuantileRankTopK(p, q.k, phi, q.ties));
    }
    case RankingSemantics::kUTopk:
      return FromUTopK(TupleUTopK(p, q.k));
    case RankingSemantics::kUKRanks: {
      RankingAnswer answer;
      answer.ids = TupleUKRanks(p, q.k, q.ties, par, report);
      return answer;
    }
    case RankingSemantics::kPTk: {
      const std::vector<double> probs =
          TupleTopKProbabilities(p, q.k, q.ties, par, report);
      return WithProbabilities(TuplePTk(p, q.k, q.threshold, q.ties), probs,
                               p);
    }
    case RankingSemantics::kGlobalTopk: {
      const std::vector<double> probs =
          TupleTopKProbabilities(p, q.k, q.ties, par, report);
      return WithProbabilities(TupleGlobalTopK(p, q.k, q.ties), probs, p);
    }
    case RankingSemantics::kExpectedScore:
      return FromRanked(TupleExpectedScoreTopK(p, q.k));
  }
  URANK_CHECK_MSG(false, "unknown semantics");
  return {};
}

}  // namespace

const char* ToString(QueryStatusCode code) {
  switch (code) {
    case QueryStatusCode::kOk:
      return "ok";
    case QueryStatusCode::kInvalidK:
      return "invalid-k";
    case QueryStatusCode::kInvalidPhi:
      return "invalid-phi";
    case QueryStatusCode::kInvalidThreshold:
      return "invalid-threshold";
    case QueryStatusCode::kWorldCountNotEnumerable:
      return "world-count-not-enumerable";
    case QueryStatusCode::kInvalidRequest:
      return "invalid-request";
    case QueryStatusCode::kUnknownRelation:
      return "unknown-relation";
    case QueryStatusCode::kOverloaded:
      return "overloaded";
    case QueryStatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case QueryStatusCode::kEpochNotAvailable:
      return "epoch-not-available";
  }
  return "?";
}

bool FromString(std::string_view name, QueryStatusCode* out) {
  for (int value = 0; value < kQueryStatusCodeCount; ++value) {
    const auto code = static_cast<QueryStatusCode>(value);
    if (name == ToString(code)) {
      *out = code;
      return true;
    }
  }
  return false;
}

int WireValue(QueryStatusCode code) { return static_cast<int>(code); }

bool FromWireValue(int value, QueryStatusCode* out) {
  // The switch (no default) is what forces a new enumerator to gain a wire
  // mapping: -Werror=switch rejects this function until the case — and
  // therefore a conscious wire-value decision — is added.
  const auto code = static_cast<QueryStatusCode>(value);
  switch (code) {
    case QueryStatusCode::kOk:
    case QueryStatusCode::kInvalidK:
    case QueryStatusCode::kInvalidPhi:
    case QueryStatusCode::kInvalidThreshold:
    case QueryStatusCode::kWorldCountNotEnumerable:
    case QueryStatusCode::kInvalidRequest:
    case QueryStatusCode::kUnknownRelation:
    case QueryStatusCode::kOverloaded:
    case QueryStatusCode::kDeadlineExceeded:
    case QueryStatusCode::kEpochNotAvailable:
      *out = code;
      return true;
  }
  return false;
}

std::shared_ptr<const PreparedAttrRelation> QueryEngine::Prepare(
    AttrRelation rel) {
  URANK_TRACE_SPAN_ARG("engine.prepare", "n", rel.size());
  metrics::ScopedHistogramTimer timer(EngineMetrics::Get().prepare_latency);
  return std::make_shared<const PreparedAttrRelation>(std::move(rel));
}

std::shared_ptr<const PreparedTupleRelation> QueryEngine::Prepare(
    TupleRelation rel) {
  URANK_TRACE_SPAN_ARG("engine.prepare", "n", rel.size());
  metrics::ScopedHistogramTimer timer(EngineMetrics::Get().prepare_latency);
  return std::make_shared<const PreparedTupleRelation>(std::move(rel));
}

QueryEngine::QueryEngine(std::shared_ptr<const PreparedAttrRelation> prepared)
    : attr_(std::move(prepared)) {
  URANK_CHECK_MSG(attr_ != nullptr, "prepared relation must not be null");
}

QueryEngine::QueryEngine(
    std::shared_ptr<const PreparedTupleRelation> prepared)
    : tuple_(std::move(prepared)) {
  URANK_CHECK_MSG(tuple_ != nullptr, "prepared relation must not be null");
}

QueryEngine::QueryEngine(std::shared_ptr<MutableAttrRelation> store)
    : mutable_attr_(std::move(store)) {
  URANK_CHECK_MSG(mutable_attr_ != nullptr, "mutable store must not be null");
}

QueryEngine::QueryEngine(std::shared_ptr<MutableTupleRelation> store)
    : mutable_tuple_(std::move(store)) {
  URANK_CHECK_MSG(mutable_tuple_ != nullptr,
                  "mutable store must not be null");
}

QueryEngine::QueryEngine(AttrRelation rel) : attr_(Prepare(std::move(rel))) {}

QueryEngine::QueryEngine(TupleRelation rel)
    : tuple_(Prepare(std::move(rel))) {}

ResolvedRelation QueryEngine::Resolve() const {
  ResolvedRelation resolved;
  if (mutable_attr_ != nullptr) {
    AttrEpochSnapshot snapshot = mutable_attr_->Snapshot();
    resolved.attr = std::move(snapshot.prepared);
    resolved.epoch = snapshot.epoch;
  } else if (mutable_tuple_ != nullptr) {
    TupleEpochSnapshot snapshot = mutable_tuple_->Snapshot();
    resolved.tuple = std::move(snapshot.prepared);
    resolved.epoch = snapshot.epoch;
  } else {
    resolved.attr = attr_;
    resolved.tuple = tuple_;
  }
  return resolved;
}

QueryStatus QueryEngine::Validate(const RankingQueryOptions& query) const {
  return ValidateResolved(query, Resolve());
}

QueryStatus QueryEngine::ValidateResolved(
    const RankingQueryOptions& query, const ResolvedRelation& resolved) const {
  if (query.k < 1) {
    std::ostringstream msg;
    msg << "k must be >= 1 (got " << query.k << ")";
    return {QueryStatusCode::kInvalidK, msg.str()};
  }
  // Bounds every k-sized table the kernels allocate (U-Topk's O(N·k) DP,
  // U-kRanks' per-chunk winner rows) by the relation size. An empty
  // relation is exempt: Run answers it with an empty top-k for any k.
  const int n = RelationSize(resolved);
  if (n > 0 && query.k > n) {
    std::ostringstream msg;
    msg << "k must be <= N (got " << query.k << ", N = " << n << ")";
    return {QueryStatusCode::kInvalidK, msg.str()};
  }
  if (query.semantics == RankingSemantics::kQuantileRank &&
      !(query.phi > 0.0 && query.phi <= 1.0)) {
    std::ostringstream msg;
    msg << "phi must be in (0,1] (got " << query.phi << ")";
    return {QueryStatusCode::kInvalidPhi, msg.str()};
  }
  if (query.semantics == RankingSemantics::kPTk &&
      !(query.threshold > 0.0 && query.threshold <= 1.0)) {
    std::ostringstream msg;
    msg << "threshold must be in (0,1] (got " << query.threshold << ")";
    return {QueryStatusCode::kInvalidThreshold, msg.str()};
  }
  if (query.semantics == RankingSemantics::kUTopk &&
      resolved.attr != nullptr &&
      resolved.attr->NumWorlds() > kMaxEnumerableWorlds) {
    std::ostringstream msg;
    msg << "U-Topk on this attribute-level relation requires enumerating "
        << resolved.attr->NumWorlds() << " worlds (limit "
        << kMaxEnumerableWorlds << ")";
    return {QueryStatusCode::kWorldCountNotEnumerable, msg.str()};
  }
  return QueryStatus::Ok();
}

QueryResult QueryEngine::Run(const QueryRequest& request) const {
  return RunResolved(request, Resolve());
}

QueryResult QueryEngine::RunResolved(const QueryRequest& request,
                                     const ResolvedRelation& resolved) const {
  const RankingQueryOptions& query = request.options;
  // Apply the runtime's placement constraints up front: resolve threads
  // and clamp a kNodeLocal request to one node's core count. Pure
  // scheduling — the answer is bit-identical either way; the clamp is
  // surfaced in QueryStats::threads_clamped.
  bool threads_clamped = false;
  const ParallelismOptions par =
      EffectiveParallelism(request.parallelism, &threads_clamped);
  const EngineMetrics& em = EngineMetrics::Get();
  URANK_TRACE_SPAN_ARG("engine.run", "k", query.k);
  metrics::ScopedHistogramTimer timer(em.query_latency);
  em.queries.Increment();
  QueryResult result;
  result.stats.epoch = resolved.epoch;
  if (request.min_epoch > resolved.epoch) {
    std::ostringstream msg;
    msg << "epoch " << request.min_epoch
        << " not yet published (latest is " << resolved.epoch << ")";
    result.status = {QueryStatusCode::kEpochNotAvailable, msg.str()};
    em.errors.Increment();
    result.stats.wall_ms = timer.ElapsedUs() * 1e-3;
    return result;
  }
  result.status = ValidateResolved(query, resolved);
  if (!result.status.ok()) {
    em.errors.Increment();
    result.stats.wall_ms = timer.ElapsedUs() * 1e-3;
    return result;
  }

  // An empty relation answers every semantics with an empty top-k: there
  // is nothing to rank, and the DP kernels' debug contracts (which the
  // per-semantics functions keep — see the death tests) assume at least
  // one tuple.
  if (RelationSize(resolved) == 0) {
    result.stats.simd_target = ToString(ActiveSimdTarget());
    result.stats.wall_ms = timer.ElapsedUs() * 1e-3;
    return result;
  }

  const bool has_key = query.semantics != RankingSemantics::kUTopk;
  // Pruned execution applies only on a statistic-cache miss: a warmed
  // memo makes the unpruned selection a cheap cache hit, and a pruned run
  // never populates the memo (it evaluates a scanned prefix, not the full
  // vector).
  const bool want_prune =
      request.prune && Prunes(resolved.attr != nullptr, query.semantics);
  KernelReport report;  // stays {1, 0} unless a parallel kernel ran
  {
    // Per-semantics kernel span; ToString returns a static literal, which
    // is what the recorder's no-copy contract requires.
    URANK_TRACE_SPAN_ARG(ToString(query.semantics), "k", query.k);
    if (resolved.attr != nullptr) {
      const PreparedAttrRelation& attr = *resolved.attr;
      // Attribute-level expected scores are built eagerly at preparation,
      // so that semantics is always a cache hit; everything else consults
      // the memo table it is backed by.
      result.stats.reused_cache =
          query.semantics == RankingSemantics::kExpectedScore ||
          (has_key && attr.HasCachedStat(KeyFor(query)));
      const bool prune = want_prune && !result.stats.reused_cache;
      result.answer =
          RunAttr(attr, query, par, &report, prune, &result.stats);
      // A pruned run touches one O(n) rank DP per scanned tuple instead of
      // the full n-by-n matrix.
      result.stats.dp_cells =
          result.stats.reused_cache
              ? 0
              : (prune ? result.stats.tuples_scanned * attr.size()
                       : AttrDpCells(attr, query));
      result.stats.tuples_pruned =
          result.stats.reused_cache ? attr.size() : 0;
    } else {
      const PreparedTupleRelation& tuple = *resolved.tuple;
      result.stats.reused_cache =
          has_key && tuple.HasCachedStat(KeyFor(query));
      const bool prune = want_prune && !result.stats.reused_cache;
      result.answer =
          RunTuple(tuple, query, par, &report, prune, &result.stats);
      // A pruned run pays its semantics' per-tuple cost on the scanned
      // prefix only.
      result.stats.dp_cells =
          result.stats.reused_cache
              ? 0
              : TupleDpCells(prune ? result.stats.tuples_scanned
                                   : tuple.size(),
                             tuple.relation().num_rules(), query);
      result.stats.tuples_pruned =
          result.stats.reused_cache ? tuple.size() : 0;
    }
  }
  em.dp_cells.Increment(result.stats.dp_cells);
  em.arena_bytes.SetMax(static_cast<double>(report.arena_bytes));
  result.stats.threads_used = report.threads_used;
  result.stats.nodes_used = report.nodes_used;
  result.stats.threads_clamped = threads_clamped;
  result.stats.arena_bytes = report.arena_bytes;
  result.stats.simd_target = ToString(ActiveSimdTarget());
  result.stats.wall_ms = timer.ElapsedUs() * 1e-3;
  return result;
}

std::vector<QueryResult> QueryEngine::RunBatch(
    const std::vector<QueryRequest>& requests, int threads) const {
  std::vector<QueryResult> results(requests.size());
  if (requests.empty()) return results;
  EngineMetrics::Get().batches.Increment();
  URANK_TRACE_SPAN_ARG("engine.run_batch", "queries",
                       static_cast<long long>(requests.size()));
  // One snapshot for the whole batch: every request answers from the same
  // epoch even while writers publish concurrently.
  const ResolvedRelation resolved = Resolve();
  // One chunk per request on the shared process-wide pool; results land at
  // disjoint indices, so claim order is irrelevant. ParallelFor's caller
  // participation keeps nesting with intra-query kernels deadlock-free.
  ParallelFor(static_cast<int>(requests.size()), ResolveThreads(threads),
              [&](int i, int /*slot*/) {
                results[static_cast<size_t>(i)] =
                    RunResolved(requests[static_cast<size_t>(i)], resolved);
              });
  return results;
}

}  // namespace urank
