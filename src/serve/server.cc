#include "serve/server.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/engine/trace.h"
#include "io/csv.h"
#include "util/metrics.h"

namespace urank {
namespace serve {

namespace {

std::uint64_t MonotonicNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NsToMs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Hands the free pages of every malloc arena back to the kernel. A publish
// drops the previous epoch's snapshot, whose arrays (prepared state and
// memoized statistics, up to N² doubles) sit in the brk heap once glibc's
// dynamic mmap threshold has risen past them at load time; without a trim
// the heap fragments and the resident set creeps up with every epoch
// (docs/SERVING.md). A no-op off glibc.
void ReturnFreedHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// Serve-layer metrics (catalogue in docs/OBSERVABILITY.md; the _us / _count
// suffixes follow the repo-wide metric-name contract — docs/SERVING.md
// documents how they map onto the request_ms / queue_depth names used in
// the design discussion).
struct ServeMetrics {
  metrics::Counter& requests =
      metrics::Registry::Global().counter("urank_serve_requests_total");
  metrics::Counter& errors =
      metrics::Registry::Global().counter("urank_serve_errors_total");
  metrics::Counter& overloaded =
      metrics::Registry::Global().counter("urank_serve_overloaded_total");
  metrics::Counter& deadline_expired = metrics::Registry::Global().counter(
      "urank_serve_deadline_expired_total");
  metrics::Gauge& queue_depth =
      metrics::Registry::Global().gauge("urank_serve_queue_depth_count");
  metrics::Histogram& queue_wait_us =
      metrics::Registry::Global().histogram("urank_serve_queue_wait_us");
  metrics::Histogram& query_us =
      metrics::Registry::Global().histogram("urank_serve_query_us");
  metrics::Histogram& admin_us =
      metrics::Registry::Global().histogram("urank_serve_admin_us");
  metrics::Histogram& mutate_us =
      metrics::Registry::Global().histogram("urank_serve_mutate_us");
  metrics::Counter& mutate_ops =
      metrics::Registry::Global().counter("urank_serve_mutate_ops_total");
  metrics::Histogram& metrics_us =
      metrics::Registry::Global().histogram("urank_serve_metrics_us");
};

ServeMetrics& Metrics() {
  static ServeMetrics m;
  return m;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), cache_(options.cache_bytes) {
  workers_.reserve(static_cast<std::size_t>(
      options_.workers > 0 ? options_.workers : 0));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Drain(); }

bool Server::LoadRelation(const std::string& name, WireModel model,
                          std::istream& in, std::string* error) {
  if (model == WireModel::kAttr) {
    AttrRelation rel;
    if (!ReadAttrRelation(in, &rel, error)) return false;
    AddRelation(name, std::move(rel));
  } else {
    TupleRelation rel;
    if (!ReadTupleRelation(in, &rel, error)) return false;
    AddRelation(name, std::move(rel));
  }
  return true;
}

bool Server::LoadRelationFile(const std::string& name, WireModel model,
                              const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return LoadRelation(name, model, in, error);
}

template <typename Store, typename Relation>
void Server::AddStore(const std::string& name, const Relation& rel) {
  // Store construction publishes epoch 1 (the full prepare) — done
  // outside the registry lock so loads never stall queries.
  auto store = std::make_shared<Store>(rel);
  RelationEntry entry;
  entry.engine = std::make_shared<QueryEngine>(store);
  entry.store = std::move(store);
  RegisterEntry(name, std::move(entry));
}

void Server::AddRelation(const std::string& name, TupleRelation rel) {
  AddStore<MutableTupleRelation>(name, rel);
}

void Server::AddRelation(const std::string& name, AttrRelation rel) {
  AddStore<MutableAttrRelation>(name, rel);
}

void Server::RegisterEntry(const std::string& name, RelationEntry entry) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const auto it = registry_.find(name);
  if (it != registry_.end()) {
    // Continue the epoch sequence past the replaced store's, so cached
    // results keyed under the old store's epochs can never alias answers
    // from the new contents.
    const std::uint64_t floor = it->second.epoch() + 1;
    std::visit([floor](const auto& s) { s->EnsureEpochAtLeast(floor); },
               entry.store);
  }
  registry_[name] = std::move(entry);
}

std::vector<RelationInfo> Server::Relations() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<RelationInfo> infos;
  infos.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) {
    infos.push_back({name, entry.model(), entry.epoch(), entry.tuples()});
  }
  return infos;
}

std::future<std::string> Server::Submit(std::string line) {
  URANK_TRACE_SPAN("serve.admit");
  Metrics().requests.Increment();
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();

  Job job;
  if (!ParseRequest(line, &job.request)) {
    Metrics().errors.Increment();
    promise.set_value(RenderErrorResponse(
        job.request.id, QueryStatusCode::kInvalidRequest, job.request.error));
    return future;
  }

  // Observability and liveness answer inline — they must keep working
  // while the queue is full or the server is draining.
  if (job.request.type == WireRequest::Type::kMetrics) {
    promise.set_value(HandleMetrics(job.request));
    return future;
  }
  if (job.request.type == WireRequest::Type::kPing) {
    promise.set_value(RenderPingResponse(job.request.id));
    return future;
  }
  if (job.request.type == WireRequest::Type::kAdminRelations) {
    promise.set_value(HandleAdminRelations(job.request));
    return future;
  }

  // query, mutate and admin/load go through the bounded queue; mutate and
  // admin/load carry no deadline — once admitted, a write always runs.
  job.admit_ns = MonotonicNs();
  double deadline_ms = 0.0;
  if (job.request.type == WireRequest::Type::kQuery) {
    deadline_ms = job.request.query.deadline_ms > 0.0
                      ? job.request.query.deadline_ms
                      : options_.default_deadline_ms;
  }
  if (deadline_ms > 0.0) {
    job.deadline_ns =
        job.admit_ns + static_cast<std::uint64_t>(deadline_ms * 1e6);
  }
  job.promise = std::move(promise);

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_ || queue_.size() >= options_.queue_capacity) {
      Metrics().overloaded.Increment();
      Metrics().errors.Increment();
      job.promise.set_value(RenderErrorResponse(
          job.request.id, QueryStatusCode::kOverloaded,
          draining_ ? "server is draining" : "admission queue is full"));
      return future;
    }
    queue_.push_back(std::move(job));
    Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  return future;
}

std::string Server::HandleLine(const std::string& line) {
  return Submit(line).get();
}

void Server::Drain() {
  {
    // Idempotent: a repeated Drain re-flips the (already set) flag and
    // falls through to the joins/leftovers below, both of which are no-ops
    // the second time.
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Leftover jobs (workers == 0, or admitted in the drain race window):
  // execute them here so every admitted future resolves.
  for (;;) {
    Job job;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty()) break;
      job = std::move(queue_.front());
      queue_.pop_front();
      Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    Execute(std::move(job));
  }
}

void Server::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
      Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    Execute(std::move(job));
  }
}

void Server::Execute(Job&& job) {
  const std::uint64_t start_ns = MonotonicNs();
  const std::uint64_t queue_ns =
      start_ns > job.admit_ns ? start_ns - job.admit_ns : 0;
  Metrics().queue_wait_us.Record(static_cast<double>(queue_ns) * 1e-3);
  URANK_TRACE_SPAN_ARG("serve.run", "queue_us", queue_ns / 1000);

  // Deadline check happens here — after the queue wait, before any work.
  if (job.deadline_ns != 0 && start_ns >= job.deadline_ns) {
    Metrics().deadline_expired.Increment();
    Metrics().errors.Increment();
    job.promise.set_value(RenderErrorResponse(
        job.request.id, QueryStatusCode::kDeadlineExceeded,
        "deadline expired after " + std::to_string(NsToMs(queue_ns)) +
            " ms in queue"));
    return;
  }

  std::string response;
  switch (job.request.type) {
    case WireRequest::Type::kQuery:
      response = ExecuteQuery(job.request, job.admit_ns, start_ns);
      break;
    case WireRequest::Type::kMutate:
      response = ExecuteMutate(job.request);
      break;
    case WireRequest::Type::kAdminLoad:
      response = ExecuteAdminLoad(job.request);
      break;
    default:
      // Inline-handled types never reach the queue.
      response = RenderErrorResponse(job.request.id,
                                     QueryStatusCode::kInvalidRequest,
                                     "internal: unexpected queued type");
      Metrics().errors.Increment();
      break;
  }
  URANK_TRACE_SPAN("serve.respond");
  const bool mutate = job.request.type == WireRequest::Type::kMutate;
  job.promise.set_value(std::move(response));
  // After the acknowledgement is handed to the connection, so the trim
  // never delays it.
  if (mutate) ReturnFreedHeap();
}

std::string Server::ExecuteQuery(const WireRequest& request,
                                 std::uint64_t admit_ns,
                                 std::uint64_t start_ns) {
  metrics::ScopedHistogramTimer timer(Metrics().query_us);
  std::shared_ptr<const QueryEngine> engine;
  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = registry_.find(request.relation);
    if (it != registry_.end()) {
      engine = it->second.engine;
      epoch = it->second.epoch();
    }
  }
  if (engine == nullptr) {
    Metrics().errors.Increment();
    return RenderErrorResponse(request.id, QueryStatusCode::kUnknownRelation,
                               "unknown relation \"" + request.relation +
                                   "\" (load it with admin/load)");
  }

  ServeTimings timings;
  timings.queue_ms = NsToMs(start_ns - admit_ns);

  const bool use_cache = request.query.cache_mode == CacheMode::kDefault;
  const ResultCacheKey key =
      MakeResultCacheKey(request.relation, epoch, request.query.options);
  // A cached answer at `epoch` only satisfies a read-your-writes demand
  // for min_epoch <= epoch; otherwise fall through to the engine, whose
  // min_epoch gate answers kEpochNotAvailable (or a newer snapshot).
  if (use_cache && request.query.min_epoch <= epoch) {
    if (std::shared_ptr<const RankingAnswer> cached = cache_.Get(key)) {
      QueryStats stats;
      stats.reused_cache = true;
      timings.serve_ms = NsToMs(MonotonicNs() - admit_ns);
      return RenderQueryResponse(request.id, request.relation, epoch,
                                 CacheOutcome::kHit, *cached, stats, timings);
    }
  }

  // Engine execution: no server lock held — long DP sweeps must not block
  // admission, other queries or the registry.
  QueryResult result = engine->Run(request.query);
  if (!result.status.ok()) {
    Metrics().errors.Increment();
    return RenderErrorResponse(request.id, result.status.code,
                               result.status.message);
  }
  // The engine resolves its own snapshot, which may be newer than the
  // epoch looked up above (a mutate published in between). Key the cache
  // entry — and report — under the epoch the answer was actually computed
  // against.
  const std::uint64_t run_epoch = result.stats.epoch;
  auto answer =
      std::make_shared<const RankingAnswer>(std::move(result.answer));
  if (use_cache) {
    cache_.Put(run_epoch == epoch
                   ? key
                   : MakeResultCacheKey(request.relation, run_epoch,
                                        request.query.options),
               answer);
  }
  timings.serve_ms = NsToMs(MonotonicNs() - admit_ns);
  return RenderQueryResponse(request.id, request.relation, run_epoch,
                             use_cache ? CacheOutcome::kMiss
                                       : CacheOutcome::kBypass,
                             *answer, result.stats, timings);
}

std::string Server::ExecuteAdminLoad(const WireRequest& request) {
  metrics::ScopedHistogramTimer timer(Metrics().admin_us);
  std::string error;
  bool loaded = false;
  if (request.has_inline_data) {
    std::istringstream in(request.inline_data);
    loaded = LoadRelation(request.name, request.model, in, &error);
  } else {
    loaded = LoadRelationFile(request.name, request.model, request.path,
                              &error);
  }
  if (!loaded) {
    Metrics().errors.Increment();
    return RenderErrorResponse(request.id, QueryStatusCode::kInvalidRequest,
                               "admin/load failed: " + error);
  }
  std::uint64_t epoch = 0;
  long long tuples = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const RelationEntry& entry = registry_[request.name];
    epoch = entry.epoch();
    tuples = entry.tuples();
  }
  return RenderLoadResponse(request.id, request.name, epoch, tuples);
}

namespace {

// Translates the model-agnostic wire ops into `Store`'s mutation type and
// applies them as one batch; on success publishes and reports the new
// epoch and live size. A payload shape that does not match the relation's
// model fails with `*invalid` set (an invalid request, not a store error).
template <typename Store>
bool ApplyWireMutations(const WireRequest& request, Store& store,
                        std::uint64_t* epoch, long long* tuples,
                        bool* invalid, std::string* error) {
  constexpr bool kTupleLevel = std::is_same_v<Store, MutableTupleRelation>;
  std::vector<typename Store::Mutation> ops(request.mutations.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const WireMutation& wm = request.mutations[i];
    typename Store::Mutation& op = ops[i];
    op.op = wm.op;
    if (wm.op == MutationOp::kDelete) {
      op.id = wm.id;
      continue;
    }
    if (wm.has_pdf == kTupleLevel) {
      *invalid = true;
      *error = "ops[" + std::to_string(i) + "]: relation \"" +
               request.relation + "\" is " +
               (kTupleLevel
                    ? "tuple-level; op carries a \"pdf\" payload"
                    : "attribute-level; op needs a \"pdf\" payload");
      return false;
    }
    if constexpr (kTupleLevel) {
      op.tuple = wm.tuple;
      op.rule_key = wm.rule_key;
    } else {
      op.tuple = wm.attr_tuple;
    }
  }
  if (!store.Apply(ops, error)) return false;
  *epoch = store.Publish().epoch;
  *tuples = store.live_size();
  return true;
}

}  // namespace

std::string Server::ExecuteMutate(const WireRequest& request) {
  metrics::ScopedHistogramTimer timer(Metrics().mutate_us);
  RelationEntry entry;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = registry_.find(request.relation);
    if (it != registry_.end()) entry = it->second;
  }
  if (entry.engine == nullptr) {
    Metrics().errors.Increment();
    return RenderErrorResponse(request.id, QueryStatusCode::kUnknownRelation,
                               "unknown relation \"" + request.relation +
                                   "\" (load it with admin/load)");
  }

  std::uint64_t epoch = 0;
  long long tuples = 0;
  bool invalid = false;
  std::string error;
  const bool ok = std::visit(
      [&](const auto& store) {
        return ApplyWireMutations(request, *store, &epoch, &tuples, &invalid,
                                  &error);
      },
      entry.store);
  if (!ok) {
    Metrics().errors.Increment();
    return RenderErrorResponse(request.id, QueryStatusCode::kInvalidRequest,
                               invalid ? error : "mutate failed: " + error);
  }
  Metrics().mutate_ops.Increment(
      static_cast<long long>(request.mutations.size()));
  return RenderMutateResponse(request.id, request.relation, epoch,
                              static_cast<long long>(request.mutations.size()),
                              tuples);
}

std::string Server::HandleAdminRelations(const WireRequest& request) {
  metrics::ScopedHistogramTimer timer(Metrics().admin_us);
  JsonValue array = JsonValue::MakeArray();
  for (const RelationInfo& info : Relations()) {
    JsonValue obj = JsonValue::MakeObject();
    obj.Set("name", JsonValue::MakeString(info.name));
    obj.Set("model", JsonValue::MakeString(ToString(info.model)));
    obj.Set("epoch",
            JsonValue::MakeNumber(static_cast<double>(info.epoch)));
    obj.Set("tuples",
            JsonValue::MakeNumber(static_cast<double>(info.tuples)));
    array.Append(std::move(obj));
  }
  return RenderRelationsResponse(request.id, std::move(array));
}

std::string Server::HandleMetrics(const WireRequest& request) {
  metrics::ScopedHistogramTimer timer(Metrics().metrics_us);
  return RenderMetricsResponse(request.id,
                               metrics::Registry::Global().RenderPrometheus());
}

}  // namespace serve
}  // namespace urank
