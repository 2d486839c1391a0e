// urankd server core: request admission, execution and response
// rendering, independent of transport.
//
// One Server owns
//   * a registry of named relations, each a mutable store (incremental
//     ingestion via the `mutate` request) wrapped by a QueryEngine. The
//     store's monotonically increasing epoch — bumped by every published
//     mutation batch, and continued past the old store's on an
//     admin/load replacement — is what keys (and thereby invalidates)
//     cached results for old snapshots,
//   * a bounded admission queue drained by a small worker pool, and
//   * an epoch-keyed result cache (serve/result_cache.h) consulted above
//     the engine's statistic memo.
//
// Admission control and deadlines (docs/SERVING.md):
//   * Submit parses the line immediately. Malformed lines are answered
//     kInvalidRequest without queueing; metrics and ping are answered
//     inline — observability must keep working while the queue is full.
//   * query and admin/load jobs enter the bounded queue. A full queue (or
//     a draining server) sheds the job immediately with kOverloaded.
//   * A query's deadline (its deadline_ms, or the server default when the
//     request carries none) is an end-to-end budget starting at
//     admission. It is enforced when a worker dequeues the job: an
//     expired job is answered kDeadlineExceeded without running. A job
//     that has started executing is never interrupted — kernels have no
//     cancellation points, and killing threads mid-DP would corrupt
//     shared prepared state.
//
// Graceful drain: Drain() stops admission (subsequent Submits shed with
// kOverloaded), executes every job already admitted, and joins the
// workers. Idempotent; the destructor calls it. This is what SIGTERM in
// tools/urankd.cc triggers — in-flight work completes, nothing new
// starts.
//
// Thread-safety: Submit/HandleLine may be called from any number of
// transport threads. Engine execution happens outside all server locks —
// only queue and registry bookkeeping is serialized.

#ifndef URANK_SERVE_SERVER_H_
#define URANK_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/engine/query_engine.h"
#include "model/attr_model.h"
#include "model/tuple_model.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"

namespace urank {
namespace serve {

struct ServerOptions {
  // Worker threads draining the admission queue. 0 means no background
  // execution at all: jobs are admitted but only run when Drain() is
  // called — deterministic by construction, which is what the overload
  // and shedding tests build on. HandleLine with workers == 0 would wait
  // forever; transports use >= 1.
  int workers = 2;
  // Bounded admission-queue capacity; a Submit finding the queue at
  // capacity is shed with kOverloaded.
  std::size_t queue_capacity = 256;
  // Deadline applied to queries that carry none (<= 0: no default).
  double default_deadline_ms = 0.0;
  // Result-cache byte budget (0 disables result caching).
  std::uint64_t cache_bytes = 64ull << 20;
};

// One registered relation, as reported by admin/relations.
struct RelationInfo {
  std::string name;
  WireModel model = WireModel::kTuple;
  std::uint64_t epoch = 0;
  long long tuples = 0;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registers (or replaces, bumping the epoch) a relation parsed from CSV
  // text (io/csv.h formats). Returns false with a description in `*error`
  // on a parse/validation failure — the registry is unchanged.
  bool LoadRelation(const std::string& name, WireModel model,
                    std::istream& in, std::string* error);
  bool LoadRelationFile(const std::string& name, WireModel model,
                        const std::string& path, std::string* error);

  // In-process registration for already-built relations (benchmarks,
  // tests). Same epoch semantics as LoadRelation.
  void AddRelation(const std::string& name, TupleRelation rel);
  void AddRelation(const std::string& name, AttrRelation rel);

  // The mutable store behind a registered relation — Store is
  // MutableTupleRelation or MutableAttrRelation — or nullptr when `name`
  // is unknown or backed by the other model. In-process writers may
  // mutate/publish through it directly; the wire path is `mutate`.
  template <typename Store>
  std::shared_ptr<Store> MutableStore(const std::string& name) const {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const auto it = registry_.find(name);
    if (it == registry_.end()) return nullptr;
    const auto* held = std::get_if<std::shared_ptr<Store>>(&it->second.store);
    return held != nullptr ? *held : nullptr;
  }

  std::vector<RelationInfo> Relations() const;

  // Admits one request line. The future resolves to the complete response
  // line (no trailing newline) — possibly immediately (malformed,
  // metrics, ping, shed). Never throws on protocol problems; every
  // outcome is a response.
  std::future<std::string> Submit(std::string line);

  // Blocking convenience for line-at-a-time transports (stdin mode,
  // per-connection TCP threads).
  std::string HandleLine(const std::string& line);

  // Stops admission, executes every already-admitted job, joins workers.
  // Idempotent.
  void Drain();

  const ServerOptions& options() const { return options_; }
  ResultCache& result_cache() { return cache_; }

 private:
  // Every registered relation is backed by a mutable store; the engine
  // wraps that store, so queries always resolve its latest published
  // epoch. A replacement load installs a fresh store whose epoch continues
  // past the old one's (EnsureEpochAtLeast), keeping result-cache keys
  // unique.
  struct RelationEntry {
    std::shared_ptr<const QueryEngine> engine;
    std::variant<std::shared_ptr<MutableTupleRelation>,
                 std::shared_ptr<MutableAttrRelation>>
        store;

    WireModel model() const {
      return store.index() == 0 ? WireModel::kTuple : WireModel::kAttr;
    }
    std::uint64_t epoch() const {
      return std::visit([](const auto& s) { return s->epoch(); }, store);
    }
    long long tuples() const {
      return std::visit([](const auto& s) { return s->live_size(); }, store);
    }
  };

  struct Job {
    WireRequest request;
    std::promise<std::string> promise;
    // Monotonic nanosecond timestamps (util timer base): admission time
    // and absolute deadline (0 = none).
    std::uint64_t admit_ns = 0;
    std::uint64_t deadline_ns = 0;
  };

  template <typename Store, typename Relation>
  void AddStore(const std::string& name, const Relation& rel);
  void RegisterEntry(const std::string& name, RelationEntry entry);
  void WorkerLoop();
  // Runs one dequeued job to completion and resolves its promise.
  void Execute(Job&& job);
  std::string ExecuteQuery(const WireRequest& request, std::uint64_t admit_ns,
                           std::uint64_t start_ns);
  std::string ExecuteMutate(const WireRequest& request);
  std::string ExecuteAdminLoad(const WireRequest& request);
  std::string HandleAdminRelations(const WireRequest& request);
  std::string HandleMetrics(const WireRequest& request);

  const ServerOptions options_;
  ResultCache cache_;

  mutable std::mutex registry_mu_;
  std::map<std::string, RelationEntry> registry_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool draining_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace urank

#endif  // URANK_SERVE_SERVER_H_
