// Deterministic intra-query parallelism: a process-wide cached thread pool
// organized as per-NUMA-node worker groups (util/topology.h), plus
// statically-chunked ParallelFor / ParallelReduce helpers with a
// placement policy.
//
// The determinism contract every parallel kernel in this library is built
// on: the decomposition of a computation into chunks is a pure function of
// the *data* (relation size, run boundaries), never of the thread count,
// node count, core set, placement policy, or scheduling. Each chunk's
// arithmetic is self-contained, and reductions fold per-chunk partials
// sequentially in chunk index order. Under that discipline the result is
// bit-identical for any `threads` value and any placement — which is what
// tests/core/parallel_determinism_test.cc asserts and
// docs/PERFORMANCE.md documents. Placement decides which worker touches
// which chunk first; it never decides what the chunk computes.
//
// One pool serves both inter-query work (QueryEngine::RunBatch) and
// intra-query work (the DP kernels). Nested use cannot deadlock because
// the calling thread always participates: helpers submitted to the pool
// are accelerators, and the caller drains every remaining chunk itself
// before returning.

#ifndef URANK_UTIL_PARALLEL_H_
#define URANK_UTIL_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace urank {

class Topology;

// Where a kernel's chunks should run. Execution schedule only — results
// are bit-identical across all three (see the contract above).
enum class PlacementPolicy : int {
  // Ignore topology: one shared claim counter, helpers on any node.
  // The pre-topology behaviour and the default.
  kFlat = 0,
  // Keep the whole kernel on the caller's node: helpers are submitted to
  // the caller's worker group only, so every chunk touches node-local
  // worker arenas. The engine clamps threads to one node's core count
  // under this policy (EffectiveParallelism).
  kNodeLocal = 1,
  // Spread chunks across nodes: contiguous chunk ranges are assigned
  // round-robin-proportionally to nodes (a pure function of the chunk
  // count and the planning topology), each node drains its own range
  // from a node-local claim queue and steals from other nodes in fixed
  // order only when its range runs dry. Right for sharded prepared
  // relations whose shards live on their home nodes.
  kSpread = 2,
};

// Stable lowercase names ("flat", "node_local", "spread") for wire
// protocols and benchmarks.
const char* ToString(PlacementPolicy placement);
bool PlacementFromString(std::string_view name, PlacementPolicy* out);

// Per-query parallelism knob, threaded through QueryEngine / the
// parallel-capable kernel entry points. Affects execution schedule only,
// never results.
struct ParallelismOptions {
  // Worker slots per kernel invocation, the calling thread included.
  // 1 = serial (the default); <= 0 = one slot per *allowed* core
  // (the process affinity mask, not hardware_concurrency — containers
  // often grant fewer cpus than the machine has).
  int threads = 1;
  // Kernels whose dynamic-program cell estimate (docs/API.md) is below
  // this stay serial: the pool handoff would cost more than it saves.
  // Gating by work rather than item count lets an attribute-level rank
  // matrix (N² cells for N tuples) use every core at N = 1000. Never
  // affects the chunk grid.
  long long min_parallel_cells = 1LL << 18;
  // Chunk-to-node placement. Never affects results.
  PlacementPolicy placement = PlacementPolicy::kFlat;
};

// What a parallel-capable kernel actually did: how many worker slots
// participated, how many distinct worker groups (NUMA nodes) they came
// from, and how many scratch bytes its per-worker arenas held at the end
// of the call. Merged upward into QueryStats.
struct KernelReport {
  int threads_used = 1;
  int nodes_used = 1;
  std::uint64_t arena_bytes = 0;

  void Merge(const KernelReport& other) {
    threads_used = std::max(threads_used, other.threads_used);
    nodes_used = std::max(nodes_used, other.nodes_used);
    arena_bytes += other.arena_bytes;
  }
};

// What one placed parallel loop observed: worker slots that claimed at
// least one chunk, distinct worker groups among them, and chunks executed
// by a worker outside the chunk's planned node range (kSpread steals).
struct ForRunInfo {
  int participants = 1;
  int nodes_used = 1;
  long long remote_chunks = 0;
};

// Process-wide worker pool, organized as one worker group per NUMA node
// of the topology it was built from. Workers are spawned lazily on first
// use, pinned to their node's core set when the topology is real (pin
// failures are harmless), kept alive for the process lifetime (the
// singleton is leaked so no destructor races static teardown), and shared
// by every ParallelFor and RunBatch.
class ThreadPool {
 public:
  // The shared pool, built from the topology current at first use: one
  // group per node, sized to the node's core count.
  static ThreadPool& Global();

  // A pool with a single unpinned group of up to `max_workers` lazily
  // spawned worker threads. Requires max_workers >= 0 (0 means every task
  // waits for the caller — only useful in tests). Aborts if max_workers
  // is negative.
  explicit ThreadPool(int max_workers);

  // A pool with one group per topology node, each group capped at its
  // node's core count and (for real topologies) pinned to it.
  explicit ThreadPool(const Topology& topology);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total worker capacity across all groups.
  int max_workers() const { return max_workers_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  // Enqueues `task` on some group (round-robin across groups). Tasks must
  // not block waiting for other queued tasks (the ParallelFor protocol
  // never does: the submitting thread drains work itself).
  void Submit(std::function<void()> task);

  // Enqueues `task` on group `group % num_groups()` — the node-local
  // submission path. Requires group >= 0.
  void SubmitToGroup(int group, std::function<void()> task);

  // Worker group of the calling thread: its group index when it is a pool
  // worker of *this* pool, otherwise -1 (external threads, the main
  // thread, workers of another pool).
  int CurrentGroup() const;

 private:
  struct Group;
  void WorkerLoop(Group* group, int group_index);

  int max_workers_ = 0;
  std::vector<std::unique_ptr<Group>> groups_;
  std::atomic<unsigned> next_group_{0};
};

// Resolves a ParallelismOptions::threads request to a concrete worker
// count: values <= 0 mean "every allowed core" (the planning topology's
// total, which honours the affinity mask); the result is >= 1.
int ResolveThreads(int requested);

// Applies the runtime's placement constraints to a request: resolves
// threads, then clamps to one node's core count under kNodeLocal (a
// kernel that must stay node-local cannot use more workers than the
// widest node has cores). Sets *clamped (may be null) to whether the
// clamp reduced the resolved request. Pure planning — results never
// depend on it.
ParallelismOptions EffectiveParallelism(const ParallelismOptions& par,
                                        bool* clamped = nullptr);

// Worker slots a kernel over `items` chunks (or independent work items)
// and an estimated `cells` dynamic-program cells should use under `par`:
// 1 when cells < min_parallel_cells, otherwise
// min(ResolveThreads(par.threads), items). Purely an execution decision —
// the chunk grid must not depend on it.
int PlannedWorkers(const ParallelismOptions& par, long long items,
                   long long cells);

// Deterministic chunk count for an n-item kernel: a pure function of n
// (roughly one chunk per `grain` items, capped) so the chunk grid — and
// therefore every per-chunk subproblem — is identical for any thread
// count.
int DeterministicChunkCount(long long n, long long grain = 8192,
                            int max_chunks = 16);

// Evenly-spaced chunk boundaries over [0, n): num_chunks + 1 ascending
// offsets with boundaries[0] = 0 and boundaries[num_chunks] = n. A pure
// function of (n, num_chunks). Aborts if n < 0 or num_chunks < 1.
std::vector<long long> ChunkBoundaries(long long n, int num_chunks);

// Runs fn(chunk, slot) for every chunk in [0, num_chunks), on up to
// `workers` threads including the caller, scheduled under `placement`.
// `slot` is a stable per-worker index in [0, workers) for indexing
// per-worker scratch arenas; slot 0 is always the calling thread. fn must
// be safe to run concurrently for distinct chunks; chunks are claimed
// dynamically, so fn must not depend on execution order (per-chunk
// subproblems are self-contained under the determinism contract above).
// Aborts if num_chunks is negative.
ForRunInfo ParallelForPlaced(int num_chunks, int workers,
                             PlacementPolicy placement,
                             const std::function<void(int, int)>& fn);

// kFlat compatibility wrapper. Returns the number of worker slots that
// actually executed at least one chunk (>= 1: the caller always
// participates) — pool helpers that finish without claiming a chunk,
// e.g. because the caller outran them, are not counted.
int ParallelFor(int num_chunks, int workers,
                const std::function<void(int, int)>& fn);

// Deterministic reduction: computes chunk_fn(chunk, slot) for every chunk
// (in parallel, as ParallelFor) and folds the per-chunk partials
// *sequentially in chunk index order* via fold(acc, partial). The fold
// order is what makes non-commutative merges (argmax with tie-breaks)
// bit-identical across thread counts.
template <typename T, typename ChunkFn, typename FoldFn>
T ParallelReduce(int num_chunks, int workers, T init, const ChunkFn& chunk_fn,
                 const FoldFn& fold) {
  std::vector<T> partials(static_cast<size_t>(std::max(num_chunks, 0)));
  ParallelFor(num_chunks, workers, [&](int chunk, int slot) {
    partials[static_cast<size_t>(chunk)] = chunk_fn(chunk, slot);
  });
  T acc = std::move(init);
  for (T& partial : partials) acc = fold(std::move(acc), std::move(partial));
  return acc;
}

}  // namespace urank

#endif  // URANK_UTIL_PARALLEL_H_
