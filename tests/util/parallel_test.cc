#include "util/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/topology.h"

namespace urank {
namespace {

// Swaps the planning topology for a synthetic one and restores a detected
// topology on destruction, so later tests see the machine's shape again.
class ScopedPlanningTopology {
 public:
  explicit ScopedPlanningTopology(const char* spec) {
    Topology topo = Topology::SingleNode(1);
    std::string error;
    EXPECT_TRUE(Topology::Parse(spec, &topo, &error)) << error;
    SetGlobalTopologyForTest(topo);
  }
  ~ScopedPlanningTopology() { SetGlobalTopologyForTest(Topology::Detect()); }
};

TEST(ResolveThreadsTest, PositiveRequestsPassThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
}

TEST(ResolveThreadsTest, NonPositiveMeansHardwareAndAtLeastOne) {
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_GE(ResolveThreads(-3), 1);
  EXPECT_EQ(ResolveThreads(0), ResolveThreads(-1));
}

// PlannedWorkers(par, items, cells): `cells` is what the gate compares,
// `items` (chunks or independent work items) caps the worker count.
TEST(PlannedWorkersTest, SmallInputsStaySerial) {
  ParallelismOptions par;
  par.threads = 8;
  par.min_parallel_cells = 4096;
  EXPECT_EQ(PlannedWorkers(par, 0, 0), 1);
  EXPECT_EQ(PlannedWorkers(par, 1000, 4095), 1);
  // Many items do not open the gate on their own.
  EXPECT_EQ(PlannedWorkers(par, 1 << 20, 4095), 1);
}

TEST(PlannedWorkersTest, LargeInputsUseRequestedThreads) {
  ParallelismOptions par;
  par.threads = 8;
  par.min_parallel_cells = 4096;
  // At the gate: parallel.
  EXPECT_EQ(PlannedWorkers(par, 16, 4096), 8);
  EXPECT_EQ(PlannedWorkers(par, 16, 1LL << 40), 8);
}

TEST(PlannedWorkersTest, NeverMoreWorkersThanItems) {
  ParallelismOptions par;
  par.threads = 8;
  par.min_parallel_cells = 1;
  EXPECT_EQ(PlannedWorkers(par, 3, 1LL << 30), 3);
  EXPECT_EQ(PlannedWorkers(par, 1, 1LL << 30), 1);
  EXPECT_EQ(PlannedWorkers(par, 0, 1LL << 30), 1);
}

TEST(PlannedWorkersTest, DefaultGateParallelizesByWorkNotTupleCount) {
  ParallelismOptions par;
  par.threads = 4;
  // Attribute rank matrix, N = 1000: 10^6 cells, though only 1000 tuples.
  EXPECT_EQ(PlannedWorkers(par, 1000, 1000LL * 1000), 4);
  // Tuple sweep, N = 4096 with 64 wide rules: N (m + 1) cells.
  EXPECT_EQ(PlannedWorkers(par, 16, 4096LL * 65), 4);
  // Tuple sweep, N = 40 independent tuples: far below the gate.
  EXPECT_EQ(PlannedWorkers(par, 1, 40LL * 41), 1);
  // Sharded expected ranks are O(N): N = 20000 stays serial.
  EXPECT_EQ(PlannedWorkers(par, 16, 20000), 1);
}

TEST(DeterministicChunkCountTest, PureFunctionOfSize) {
  EXPECT_EQ(DeterministicChunkCount(0), 1);
  EXPECT_EQ(DeterministicChunkCount(1), 1);
  EXPECT_EQ(DeterministicChunkCount(8191), 1);
  EXPECT_EQ(DeterministicChunkCount(8192), 1);
  EXPECT_EQ(DeterministicChunkCount(16384), 2);
  EXPECT_EQ(DeterministicChunkCount(100000), 12);
  EXPECT_EQ(DeterministicChunkCount(1 << 30), 16);  // capped
}

TEST(DeterministicChunkCountTest, CustomGrainAndCap) {
  EXPECT_EQ(DeterministicChunkCount(100, 10, 4), 4);
  EXPECT_EQ(DeterministicChunkCount(100, 10, 32), 10);
  EXPECT_EQ(DeterministicChunkCount(100, 1000, 32), 1);
}

TEST(DeterministicChunkCountDeathTest, RejectsBadGrainOrCap) {
  EXPECT_DEATH(DeterministicChunkCount(10, 0, 4), "grain");
  EXPECT_DEATH(DeterministicChunkCount(10, 8, 0), "max_chunks");
}

TEST(ChunkBoundariesTest, CoversRangeInAscendingOrder) {
  const std::vector<long long> bounds = ChunkBoundaries(10, 3);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 10);
  for (size_t c = 1; c < bounds.size(); ++c) {
    EXPECT_LE(bounds[c - 1], bounds[c]);
  }
}

TEST(ChunkBoundariesTest, MoreChunksThanItemsYieldsEmptyChunks) {
  const std::vector<long long> bounds = ChunkBoundaries(2, 5);
  ASSERT_EQ(bounds.size(), 6u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 2);
  long long covered = 0;
  for (size_t c = 1; c < bounds.size(); ++c) covered += bounds[c] - bounds[c - 1];
  EXPECT_EQ(covered, 2);
}

TEST(ChunkBoundariesDeathTest, RejectsBadArguments) {
  EXPECT_DEATH(ChunkBoundaries(-1, 3), "n must be");
  EXPECT_DEATH(ChunkBoundaries(10, 0), "num_chunks");
}

TEST(ParallelForTest, SerialWorkerVisitsChunksInOrderOnSlotZero) {
  std::vector<int> order;
  std::vector<int> slots;
  const int used = ParallelFor(5, 1, [&](int chunk, int slot) {
    order.push_back(chunk);
    slots.push_back(slot);
  });
  EXPECT_EQ(used, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(slots, (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(ParallelForTest, ZeroChunksRunsNothing) {
  bool ran = false;
  const int used = ParallelFor(0, 8, [&](int, int) { ran = true; });
  EXPECT_EQ(used, 1);
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, EveryChunkRunsExactlyOnce) {
  constexpr int kChunks = 64;
  std::vector<std::atomic<int>> counts(kChunks);
  for (auto& c : counts) c.store(0);
  const int used = ParallelFor(kChunks, 8, [&](int chunk, int slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, 8);
    counts[static_cast<size_t>(chunk)].fetch_add(1);
  });
  EXPECT_GE(used, 1);
  EXPECT_LE(used, 8);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, WorkersClampedToChunkCount) {
  std::atomic<int> max_slot{0};
  const int used = ParallelFor(2, 16, [&](int, int slot) {
    int cur = max_slot.load();
    while (slot > cur && !max_slot.compare_exchange_weak(cur, slot)) {
    }
  });
  EXPECT_LE(used, 2);
  EXPECT_LT(max_slot.load(), 2);
}

TEST(ParallelForDeathTest, RejectsNegativeChunkCount) {
  EXPECT_DEATH(ParallelFor(-1, 2, [](int, int) {}), "num_chunks");
}

TEST(ParallelReduceTest, FoldsPartialsInChunkIndexOrder) {
  // String concatenation is non-commutative, so any out-of-order fold
  // changes the answer. Run with enough workers to force real concurrency.
  for (int workers : {1, 2, 8}) {
    const std::string joined = ParallelReduce<std::string>(
        6, workers, std::string(),
        [](int chunk, int) { return std::string(1, static_cast<char>('a' + chunk)); },
        [](std::string acc, std::string part) { return acc + part; });
    EXPECT_EQ(joined, "abcdef") << "workers=" << workers;
  }
}

TEST(ParallelReduceTest, SumMatchesSerialForAnyWorkerCount) {
  const auto chunk_sum = [](int chunk, int) {
    long long s = 0;
    for (int i = 0; i < 1000; ++i) s += chunk * 1000 + i;
    return s;
  };
  const auto fold = [](long long acc, long long part) { return acc + part; };
  const long long serial = ParallelReduce<long long>(16, 1, 0, chunk_sum, fold);
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(ParallelReduce<long long>(16, workers, 0, chunk_sum, fold),
              serial);
  }
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  constexpr int kTasks = 32;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++done == kTasks) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                          [&] { return done == kTasks; }));
}

TEST(ThreadPoolTest, GlobalPoolIsSharedAndSizedToHardware) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.max_workers(), 1);
}

TEST(ThreadPoolDeathTest, RejectsNegativeWorkerCap) {
  EXPECT_DEATH(ThreadPool(-1), "max_workers");
}

TEST(PlacementPolicyTest, StringRoundTrip) {
  for (PlacementPolicy placement :
       {PlacementPolicy::kFlat, PlacementPolicy::kNodeLocal,
        PlacementPolicy::kSpread}) {
    PlacementPolicy parsed = PlacementPolicy::kFlat;
    ASSERT_TRUE(PlacementFromString(ToString(placement), &parsed))
        << ToString(placement);
    EXPECT_EQ(parsed, placement);
  }
}

TEST(PlacementPolicyTest, RejectsUnknownNamesWithoutTouchingOut) {
  PlacementPolicy parsed = PlacementPolicy::kSpread;
  EXPECT_FALSE(PlacementFromString("numa", &parsed));
  EXPECT_FALSE(PlacementFromString("", &parsed));
  EXPECT_FALSE(PlacementFromString("Flat", &parsed));  // case-sensitive
  EXPECT_EQ(parsed, PlacementPolicy::kSpread);
}

TEST(EffectiveParallelismTest, FlatAndSpreadOnlyResolveThreads) {
  ScopedPlanningTopology topo("0-3;4-7");
  for (PlacementPolicy placement :
       {PlacementPolicy::kFlat, PlacementPolicy::kSpread}) {
    ParallelismOptions par;
    par.threads = 8;
    par.placement = placement;
    bool clamped = true;
    const ParallelismOptions eff = EffectiveParallelism(par, &clamped);
    EXPECT_EQ(eff.threads, 8) << ToString(placement);
    EXPECT_EQ(eff.placement, placement);
    EXPECT_FALSE(clamped);
  }
}

TEST(EffectiveParallelismTest, NodeLocalClampsToWidestNode) {
  ScopedPlanningTopology topo("0-3;4-9");  // widest node has 6 cores
  ParallelismOptions par;
  par.threads = 16;
  par.placement = PlacementPolicy::kNodeLocal;
  bool clamped = false;
  const ParallelismOptions eff = EffectiveParallelism(par, &clamped);
  EXPECT_EQ(eff.threads, 6);
  EXPECT_EQ(eff.placement, PlacementPolicy::kNodeLocal);
  EXPECT_TRUE(clamped);

  // A request already within the widest node passes through unclamped.
  par.threads = 4;
  const ParallelismOptions small = EffectiveParallelism(par, &clamped);
  EXPECT_EQ(small.threads, 4);
  EXPECT_FALSE(clamped);
}

TEST(EffectiveParallelismTest, AutoThreadsResolveBeforeClamping) {
  ScopedPlanningTopology topo("0-1;2-3");
  ParallelismOptions par;
  par.threads = 0;  // "every allowed core" = the planning topology's total
  par.placement = PlacementPolicy::kNodeLocal;
  bool clamped = false;
  const ParallelismOptions eff = EffectiveParallelism(par, &clamped);
  EXPECT_EQ(eff.threads, 2);  // 4 total cores clamped to the 2-core node
  EXPECT_TRUE(clamped);
}

TEST(ParallelForPlacedTest, EveryChunkRunsExactlyOnceUnderEveryPolicy) {
  constexpr int kChunks = 64;
  for (PlacementPolicy placement :
       {PlacementPolicy::kFlat, PlacementPolicy::kNodeLocal,
        PlacementPolicy::kSpread}) {
    std::vector<std::atomic<int>> counts(kChunks);
    for (auto& c : counts) c.store(0);
    const ForRunInfo info =
        ParallelForPlaced(kChunks, 8, placement, [&](int chunk, int slot) {
          EXPECT_GE(slot, 0);
          EXPECT_LT(slot, 8);
          counts[static_cast<size_t>(chunk)].fetch_add(1);
        });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1) << ToString(placement);
    EXPECT_GE(info.participants, 1);
    EXPECT_LE(info.participants, 8);
    EXPECT_GE(info.nodes_used, 1);
    EXPECT_GE(info.remote_chunks, 0);
  }
}

TEST(ParallelForPlacedTest, SerialCallerVisitsChunksInOrderOnSlotZero) {
  for (PlacementPolicy placement :
       {PlacementPolicy::kFlat, PlacementPolicy::kNodeLocal,
        PlacementPolicy::kSpread}) {
    std::vector<int> order;
    const ForRunInfo info =
        ParallelForPlaced(5, 1, placement, [&](int chunk, int slot) {
          EXPECT_EQ(slot, 0);
          order.push_back(chunk);
        });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4})) << ToString(placement);
    EXPECT_EQ(info.participants, 1);
    EXPECT_EQ(info.nodes_used, 1);
    EXPECT_EQ(info.remote_chunks, 0);
  }
}

TEST(ParallelForPlacedTest, ZeroChunksRunsNothing) {
  bool ran = false;
  const ForRunInfo info = ParallelForPlaced(
      0, 8, PlacementPolicy::kSpread, [&](int, int) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(info.participants, 1);
}

TEST(ParallelForPlacedTest, SyntheticMultiNodePlanningIsHarmless) {
  // A synthetic multi-node planning topology must not change execution
  // correctness even though the execution pool (built at first use from
  // the machine) has a different group count.
  ScopedPlanningTopology topo("0-1;2-3;4-5");
  for (PlacementPolicy placement :
       {PlacementPolicy::kFlat, PlacementPolicy::kNodeLocal,
        PlacementPolicy::kSpread}) {
    std::vector<std::atomic<int>> counts(24);
    for (auto& c : counts) c.store(0);
    ParallelForPlaced(24, 6, placement, [&](int chunk, int) {
      counts[static_cast<size_t>(chunk)].fetch_add(1);
    });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1) << ToString(placement);
  }
}

TEST(ParallelForPlacedDeathTest, RejectsNegativeChunkCount) {
  EXPECT_DEATH(
      ParallelForPlaced(-1, 2, PlacementPolicy::kFlat, [](int, int) {}),
      "num_chunks");
}

TEST(ThreadPoolTest, SubmitToGroupRunsOnEveryGroup) {
  ThreadPool pool(2);
  ASSERT_GE(pool.num_groups(), 1);
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  const int total = 4 * pool.num_groups();
  for (int g = 0; g < total; ++g) {
    pool.SubmitToGroup(g, [&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++done == total) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                          [&] { return done == total; }));
}

TEST(ThreadPoolTest, CurrentGroupIsMinusOneOffPoolAndValidOnWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.CurrentGroup(), -1);  // the main thread is not a worker
  std::mutex mu;
  std::condition_variable cv;
  int seen = -2;
  pool.Submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    seen = pool.CurrentGroup();
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                          [&] { return seen != -2; }));
  EXPECT_GE(seen, 0);
  EXPECT_LT(seen, pool.num_groups());
}

TEST(KernelReportTest, MergeTakesMaxThreadsAndSumsArenaBytes) {
  KernelReport a;
  a.threads_used = 4;
  a.nodes_used = 1;
  a.arena_bytes = 100;
  KernelReport b;
  b.threads_used = 2;
  b.nodes_used = 2;
  b.arena_bytes = 50;
  a.Merge(b);
  EXPECT_EQ(a.threads_used, 4);
  EXPECT_EQ(a.nodes_used, 2);
  EXPECT_EQ(a.arena_bytes, 150u);
  b.Merge(a);
  EXPECT_EQ(b.threads_used, 4);
  EXPECT_EQ(b.nodes_used, 2);
  EXPECT_EQ(b.arena_bytes, 200u);
}

}  // namespace
}  // namespace urank
