#include "util/parallel.h"

#include <atomic>
#include <memory>

// trace.h lives under core/engine (it instruments the query path) but is
// dependency-free; including it here is the one sanctioned upward include
// so ParallelFor chunks show up in flame charts under the engine spans.
#include "core/engine/trace.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/topology.h"

namespace urank {

namespace {

// Scheduling metrics shared by every ParallelFor. Resolved once; the
// per-chunk path is the relaxed atomics documented in util/metrics.h.
struct ForMetrics {
  metrics::Counter& invocations;
  metrics::Counter& chunks;
  metrics::Counter& pool_tasks;
  metrics::Counter& remote_chunks;
  metrics::Gauge& nodes_used;
  metrics::Histogram& chunk_latency;

  static const ForMetrics& Get() {
    static const ForMetrics m{
        metrics::Registry::Global().counter(
            "urank_parallel_invocations_total"),
        metrics::Registry::Global().counter("urank_parallel_chunks_total"),
        metrics::Registry::Global().counter(
            "urank_parallel_pool_tasks_total"),
        metrics::Registry::Global().counter(
            "urank_parallel_remote_chunks_total"),
        // High-water gauge of distinct worker groups one loop engaged — a
        // dimensionless node count, where any unit suffix would misread as
        // bytes/time; the name is part of the runtime's documented surface
        // (docs/OBSERVABILITY.md).
        // urank-lint: allow(metric-name)
        metrics::Registry::Global().gauge("urank_parallel_nodes_used"),
        metrics::Registry::Global().histogram(
            "urank_parallel_chunk_latency_us")};
    return m;
  }
};

void RunChunk(const std::function<void(int, int)>& fn, int chunk, int slot) {
  URANK_TRACE_SPAN_ARG("parallel.chunk", "chunk", chunk);
  metrics::ScopedHistogramTimer timer(ForMetrics::Get().chunk_latency);
  fn(chunk, slot);
}

// Identity of the current thread within a pool, so SubmitToGroup and the
// kSpread caller can route work to the node the thread already runs on.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local int tl_worker_group = -1;

}  // namespace

const char* ToString(PlacementPolicy placement) {
  switch (placement) {
    case PlacementPolicy::kFlat:
      return "flat";
    case PlacementPolicy::kNodeLocal:
      return "node_local";
    case PlacementPolicy::kSpread:
      return "spread";
  }
  return "flat";
}

bool PlacementFromString(std::string_view name, PlacementPolicy* out) {
  if (name == "flat") {
    *out = PlacementPolicy::kFlat;
  } else if (name == "node_local") {
    *out = PlacementPolicy::kNodeLocal;
  } else if (name == "spread") {
    *out = PlacementPolicy::kSpread;
  } else {
    return false;
  }
  return true;
}

// One worker group: a node-local task queue plus its lazily spawned
// worker threads. Pinning is best-effort and only attempted for groups
// built from a real (non-synthetic) topology.
struct ThreadPool::Group {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;  // guarded by mu
  std::vector<std::thread> workers;         // guarded by mu
  int max_workers = 0;
  CoreSet cores;
  bool pin = false;
  bool shutdown = false;  // guarded by mu
};

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads live for the process lifetime, so a
  // destructor running during static teardown would race them. Built from
  // the planning topology current at first use; later topology overrides
  // change planning only, never the already-running groups.
  static ThreadPool* pool = new ThreadPool(GlobalTopology());
  return *pool;
}

ThreadPool::ThreadPool(int max_workers) : max_workers_(max_workers) {
  URANK_CHECK_MSG(max_workers >= 0, "max_workers must be >= 0");
  auto group = std::make_unique<Group>();
  group->max_workers = max_workers;
  groups_.push_back(std::move(group));
}

ThreadPool::ThreadPool(const Topology& topology) {
  for (const NumaNode& node : topology.nodes()) {
    auto group = std::make_unique<Group>();
    group->max_workers = node.cores.size();
    group->cores = node.cores;
    group->pin = !topology.synthetic();
    max_workers_ += group->max_workers;
    groups_.push_back(std::move(group));
  }
  URANK_CHECK_MSG(!groups_.empty(), "topology must have at least one node");
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> workers;
  for (auto& group : groups_) {
    {
      std::lock_guard<std::mutex> lock(group->mu);
      group->shutdown = true;
      for (std::thread& t : group->workers) workers.push_back(std::move(t));
      group->workers.clear();
    }
    group->cv.notify_all();
  }
  for (std::thread& t : workers) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const unsigned ticket =
      next_group_.fetch_add(1, std::memory_order_acq_rel);
  SubmitToGroup(static_cast<int>(ticket % groups_.size()), std::move(task));
}

void ThreadPool::SubmitToGroup(int group_index, std::function<void()> task) {
  URANK_CHECK_MSG(group_index >= 0, "group must be >= 0");
  group_index %= static_cast<int>(groups_.size());
  Group& group = *groups_[static_cast<size_t>(group_index)];
  {
    std::lock_guard<std::mutex> lock(group.mu);
    group.queue.push_back(std::move(task));
    // Spawn a worker lazily while the queue outnumbers the idle capacity;
    // cheap heuristic: one worker per queued task up to the group cap.
    if (static_cast<int>(group.workers.size()) < group.max_workers &&
        !group.queue.empty()) {
      group.workers.emplace_back(
          [this, g = &group, group_index] { WorkerLoop(g, group_index); });
    }
  }
  group.cv.notify_one();
}

int ThreadPool::CurrentGroup() const {
  return tl_worker_pool == this ? tl_worker_group : -1;
}

void ThreadPool::WorkerLoop(Group* group, int group_index) {
  tl_worker_pool = this;
  tl_worker_group = group_index;
  if (group->pin) {
    // Best effort: a failed pin (shrunk cpuset, non-Linux) leaves the
    // worker unpinned, which affects locality only, never results.
    (void)PinCurrentThreadToCores(group->cores);
  }
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(group->mu);
      group->cv.wait(lock,
                     [group] { return group->shutdown || !group->queue.empty(); });
      if (group->shutdown && group->queue.empty()) return;
      task = std::move(group->queue.front());
      group->queue.pop_front();
    }
    task();
  }
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  // "All threads" means every core the process is allowed to run on.
  // GlobalTopology() is already intersected with the affinity mask (or is
  // the single-node fallback sized by sched_getaffinity), so this never
  // oversubscribes a container cpuset the way hardware_concurrency does.
  return std::max(1, GlobalTopology().total_cores());
}

ParallelismOptions EffectiveParallelism(const ParallelismOptions& par,
                                        bool* clamped) {
  ParallelismOptions out = par;
  out.threads = ResolveThreads(par.threads);
  bool did_clamp = false;
  if (par.placement == PlacementPolicy::kNodeLocal) {
    const int cap = GlobalTopology().max_node_cores();
    if (out.threads > cap) {
      out.threads = cap;
      did_clamp = true;
    }
  }
  if (clamped != nullptr) *clamped = did_clamp;
  return out;
}

int PlannedWorkers(const ParallelismOptions& par, long long items,
                   long long cells) {
  if (cells < par.min_parallel_cells) return 1;
  const long long resolved = ResolveThreads(par.threads);
  return static_cast<int>(std::max(1LL, std::min(resolved, items)));
}

int DeterministicChunkCount(long long n, long long grain, int max_chunks) {
  URANK_CHECK_MSG(grain > 0 && max_chunks >= 1,
                  "grain and max_chunks must be positive");
  if (n <= 0) return 1;
  const long long chunks = n / grain;
  return static_cast<int>(
      std::max(1LL, std::min(chunks, static_cast<long long>(max_chunks))));
}

std::vector<long long> ChunkBoundaries(long long n, int num_chunks) {
  URANK_CHECK_MSG(n >= 0, "n must be >= 0");
  URANK_CHECK_MSG(num_chunks >= 1, "num_chunks must be >= 1");
  std::vector<long long> bounds(static_cast<size_t>(num_chunks) + 1, 0);
  for (int c = 0; c <= num_chunks; ++c) {
    bounds[static_cast<size_t>(c)] =
        n * static_cast<long long>(c) / static_cast<long long>(num_chunks);
  }
  return bounds;
}

namespace {

// Shared state of one placed ParallelFor call. Held by shared_ptr so a
// helper task that the pool dequeues after the caller already finished
// (having drained every chunk itself) still touches valid memory.
//
// Chunks are partitioned into `num_ranges` contiguous ranges (a pure
// function of the chunk count and the planning topology), one node-local
// claim counter per range. A worker drains its home range first, then
// steals from the other ranges in fixed cyclic order — stolen chunks are
// the remote-traffic signal surfaced as urank_parallel_remote_chunks.
// Which worker runs a chunk is scheduling only; the chunk's arithmetic is
// self-contained, so results stay bit-identical.
struct PlacedState {
  PlacedState(int chunks, int ranges, std::function<void(int, int)> f)
      : num_chunks(chunks),
        num_ranges(ranges),
        fn(std::move(f)),
        bounds(ChunkBoundaries(chunks, ranges)),
        next(std::make_unique<std::atomic<int>[]>(
            static_cast<size_t>(ranges))) {
    for (int r = 0; r < ranges; ++r) next[r].store(0, std::memory_order_release);
  }

  // Drains as worker `slot` whose home range is `home`; `group` is the
  // pool worker group the thread belongs to (-1 for external threads),
  // recorded so the loop can report how many distinct groups took part.
  void Drain(int slot, int home, int group) {
    bool counted = false;
    for (int pass = 0; pass < num_ranges; ++pass) {
      const int range = (home + pass) % num_ranges;
      for (;;) {
        const int offset = next[range].fetch_add(1, std::memory_order_acq_rel);
        const long long chunk = bounds[static_cast<size_t>(range)] + offset;
        if (chunk >= bounds[static_cast<size_t>(range) + 1]) break;
        if (!counted) {
          // Observed participation, not slots made available: a helper the
          // caller outran never claims a chunk and is not counted. Every
          // increment is sequenced before the chunk's done++ below, so the
          // caller's read after done == num_chunks sees the final count.
          participants.fetch_add(1, std::memory_order_acq_rel);
          const int bit = group < 0 ? 0 : (group < 63 ? group : 63);
          group_mask.fetch_or(std::uint64_t{1} << bit,
                              std::memory_order_acq_rel);
          counted = true;
        }
        if (pass != 0) remote.fetch_add(1, std::memory_order_acq_rel);
        RunChunk(fn, static_cast<int>(chunk), slot);
        std::lock_guard<std::mutex> lock(mu);
        if (++done == num_chunks) cv.notify_all();
      }
    }
  }

  const int num_chunks;
  const int num_ranges;
  const std::function<void(int, int)> fn;
  const std::vector<long long> bounds;
  const std::unique_ptr<std::atomic<int>[]> next;
  std::atomic<int> participants{0};
  std::atomic<std::uint64_t> group_mask{0};
  std::atomic<long long> remote{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;  // guarded by mu
};

int PopCount(std::uint64_t mask) {
  int count = 0;
  while (mask != 0) {
    mask &= mask - 1;
    ++count;
  }
  return count;
}

}  // namespace

ForRunInfo ParallelForPlaced(int num_chunks, int workers,
                             PlacementPolicy placement,
                             const std::function<void(int, int)>& fn) {
  URANK_CHECK_MSG(num_chunks >= 0, "num_chunks must be >= 0");
  ForRunInfo info;
  if (num_chunks == 0) return info;
  const ForMetrics& fm = ForMetrics::Get();
  fm.invocations.Increment();
  fm.chunks.Increment(num_chunks);
  URANK_TRACE_SPAN_ARG("parallel.for", "chunks", num_chunks);
  workers = std::max(1, std::min(workers, num_chunks));
  if (workers == 1) {
    for (int chunk = 0; chunk < num_chunks; ++chunk) RunChunk(fn, chunk, 0);
    fm.nodes_used.SetMax(1);
    return info;
  }

  ThreadPool& pool = ThreadPool::Global();
  // Under kSpread, chunk ranges map onto the planning topology's nodes;
  // the other policies use a single shared range. The range grid is a
  // pure function of (num_chunks, planning topology) — never of workers'
  // runtime behaviour — but even that only routes scheduling.
  int ranges = 1;
  if (placement == PlacementPolicy::kSpread) {
    ranges = std::max(
        1, std::min(GlobalTopology().num_nodes(),
                    std::min(num_chunks, workers)));
  }
  auto state = std::make_shared<PlacedState>(num_chunks, ranges, fn);

  const int caller_group = pool.CurrentGroup();
  int caller_home = 0;
  if (placement == PlacementPolicy::kSpread && caller_group >= 0) {
    caller_home = caller_group % ranges;
  }
  for (int slot = 1; slot < workers; ++slot) {
    switch (placement) {
      case PlacementPolicy::kFlat: {
        pool.Submit([state, slot, &pool] {
          state->Drain(slot, 0, pool.CurrentGroup());
        });
        break;
      }
      case PlacementPolicy::kNodeLocal: {
        // Every helper joins the caller's group so chunks and per-worker
        // arenas stay on one node.
        const int group = caller_group >= 0 ? caller_group : 0;
        pool.SubmitToGroup(group, [state, slot, &pool] {
          state->Drain(slot, 0, pool.CurrentGroup());
        });
        break;
      }
      case PlacementPolicy::kSpread: {
        // Deal helpers across the ranges; each drains its own node's
        // range before stealing.
        const int home = slot % ranges;
        pool.SubmitToGroup(home, [state, slot, home, &pool] {
          state->Drain(slot, home, pool.CurrentGroup());
        });
        break;
      }
    }
  }
  fm.pool_tasks.Increment(workers - 1);
  // The caller always participates — no nested deadlock.
  state->Drain(0, caller_home, caller_group);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == state->num_chunks; });
  // Every chunk has run, so every participating slot has registered
  // itself; the caller is always among them.
  info.participants = state->participants.load(std::memory_order_acquire);
  info.nodes_used =
      std::max(1, PopCount(state->group_mask.load(std::memory_order_acquire)));
  info.remote_chunks = state->remote.load(std::memory_order_acquire);
  fm.nodes_used.SetMax(info.nodes_used);
  if (info.remote_chunks > 0) fm.remote_chunks.Increment(info.remote_chunks);
  return info;
}

int ParallelFor(int num_chunks, int workers,
                const std::function<void(int, int)>& fn) {
  return ParallelForPlaced(num_chunks, workers, PlacementPolicy::kFlat, fn)
      .participants;
}

}  // namespace urank
