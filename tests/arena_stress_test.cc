// Stress test of the node arena (tree/node_pool): randomized multi-thread
// churn where nodes routinely die on a different thread than the one that
// allocated them — the pipeline's real lifecycle (executor threads build
// intention trees, meld threads drop them; meld threads build states,
// executors drop old snapshots). Checks the arena's global invariants:
//
//  * `LiveNodeCount()` is exact at every quiescent point and 0 at teardown
//    (relative to the suite baseline);
//  * the stats reconcile: every slot ever carved from a slab is either
//    live, in the shared free list, or parked in a thread cache — so after
//    the churn threads exit (their caches drain on thread exit) and the
//    main thread drains its own, `carved == live + free_shared`;
//  * payload heap allocations balance their frees;
//  * the per-thread node counters sum exactly, both over a thread that is
//    still alive and over one that has exited.
//
// Runs under ENABLE_SANITIZERS to catch cross-thread use-after-free or
// leaks in the slab recycling itself.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "tree/node.h"
#include "tree/node_pool.h"

namespace hyder {
namespace {

// A handoff queue: producers push nodes, any thread may pop and drop them.
class HandoffQueue {
 public:
  void Push(NodePtr n) {
    MutexLock lock(mu_);
    nodes_.push_back(std::move(n));
  }

  // Pops up to `max` nodes into `out`; returns how many.
  size_t PopSome(std::vector<NodePtr>* out, size_t max) {
    MutexLock lock(mu_);
    size_t n = std::min(max, nodes_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(nodes_.back()));
      nodes_.pop_back();
    }
    return n;
  }

  void Clear() {
    MutexLock lock(mu_);
    nodes_.clear();
  }

 private:
  Mutex mu_;
  std::vector<NodePtr> nodes_ GUARDED_BY(mu_);
};

TEST(ArenaStressTest, CrossThreadChurnReconciles) {
  const uint64_t live_before = LiveNodeCount();
  const ArenaStats stats_before = NodeArenaStats();

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 400;
  HandoffQueue handoff;
  std::atomic<uint64_t> handed_off{0};
  std::atomic<uint64_t> freed_foreign{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::vector<NodePtr> local;
      std::vector<NodePtr> adopted;
      for (int round = 0; round < kRoundsPerThread; ++round) {
        // Allocate a burst with a mix of inline and heap payloads; link
        // some into small chains so NodeUnref's cascade also crosses
        // threads.
        const size_t burst = 1 + rng.Uniform(64);
        for (size_t i = 0; i < burst; ++i) {
          const size_t len = rng.Bernoulli(0.25)
                                 ? kNodeInlinePayloadCap * 2 + rng.Uniform(64)
                                 : rng.Uniform(kNodeInlinePayloadCap + 1);
          NodePtr n = MakeNode(rng.Next(), std::string(len, 'p'));
          if (!local.empty() && rng.Bernoulli(0.3)) {
            n->left().Rewire(Ref::To(local.back()));
            local.pop_back();
          }
          local.push_back(std::move(n));
        }
        // Hand a slice to the other threads, drop a slice locally, and
        // free a slice of what the others handed to us.
        while (local.size() > 32) {
          NodePtr n = std::move(local.back());
          local.pop_back();
          if (rng.Bernoulli(0.5)) {
            handoff.Push(std::move(n));
            handed_off.fetch_add(1, std::memory_order_relaxed);
          }
        }
        adopted.clear();
        freed_foreign.fetch_add(handoff.PopSome(&adopted, rng.Uniform(48)),
                                std::memory_order_relaxed);
        adopted.clear();  // Frees nodes allocated by other threads.
      }
      // Whatever is left dies on this thread; its thread cache drains to
      // the shared pool when the thread exits.
    });
  }
  for (auto& t : threads) t.join();
  handoff.Clear();

  EXPECT_GT(handed_off.load(), 0u) << "churn must actually cross threads";
  EXPECT_GT(freed_foreign.load(), 0u);

  // All churn nodes are gone; only the caches hide slots now.
  EXPECT_EQ(LiveNodeCount(), live_before);

  DrainNodeArenaThreadCache();
  const ArenaStats stats = NodeArenaStats();
  EXPECT_EQ(stats.live, live_before);
  EXPECT_EQ(stats.payload_heap_allocs, stats.payload_heap_frees)
      << "every heap payload freed";
  EXPECT_GE(stats.allocated, stats_before.allocated +
                                 kThreads * kRoundsPerThread)
      << "sanity: the churn really allocated";
  // Worker caches drained at thread exit and the main-thread cache was
  // drained above, so every carved slot is accounted for. (Other suites
  // don't run concurrently: each test binary is its own process.)
  EXPECT_EQ(stats.carved, stats.live + stats.free_shared);
  EXPECT_GT(stats.recycled, 0u) << "steady-state churn must recycle slots";
  EXPECT_EQ(stats.slab_bytes, stats.slabs * 1024 * sizeof(Node));
}

TEST(ArenaStressTest, LiveCountExactUnderParallelBursts) {
  const uint64_t live_before = LiveNodeCount();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::atomic<int> done_allocating{0};
  std::atomic<bool> release{false};
  std::vector<std::vector<NodePtr>> held(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      held[t].reserve(kPerThread);
      for (uint64_t i = 0; i < kPerThread; ++i)
        held[t].push_back(MakeNode(i, "v"));
      done_allocating.fetch_add(1);
      while (!release.load()) {
      }
      held[t].clear();
    });
  }
  while (done_allocating.load() < kThreads) {
  }
  // All threads holding: the count is exact, not approximate.
  EXPECT_EQ(LiveNodeCount(), live_before + kThreads * kPerThread);
  release.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(LiveNodeCount(), live_before);
}

// Parks a worker thread between building nodes and exiting.
struct Parking {
  Mutex mu;
  CondVar cv;
  bool built GUARDED_BY(mu) = false;
  bool leave GUARDED_BY(mu) = false;
  std::vector<NodePtr> handed GUARDED_BY(mu);
};

TEST(ArenaStressTest, CountsReconcileOverParkedAndExitedThreads) {
  const ArenaStats before = NodeArenaStats();
  constexpr uint64_t kBuilt = 3000;
  constexpr uint64_t kHanded = 1000;
  Parking park;
  std::thread worker([&] {
    std::vector<NodePtr> kept;
    std::vector<NodePtr> handed;
    for (uint64_t i = 0; i < kBuilt; ++i) {
      (i < kHanded ? handed : kept).push_back(MakeNode(i, "v"));
    }
    MutexLock lock(park.mu);
    park.handed = std::move(handed);
    park.built = true;
    park.cv.SignalAll();
    while (!park.leave) park.cv.Wait(park.mu);
    kept.clear();  // The rest die on the thread that built them.
  });
  std::vector<NodePtr> handed;
  {
    MutexLock lock(park.mu);
    while (!park.built) park.cv.Wait(park.mu);
    handed = std::move(park.handed);
  }
  // The worker is parked alive: its counts come from its registered cache.
  ArenaStats s = NodeArenaStats();
  EXPECT_EQ(s.allocated, before.allocated + kBuilt);
  EXPECT_EQ(s.live, before.live + kBuilt);
  EXPECT_EQ(LiveNodeCount(), s.live);
  // Nodes the worker built die here, so this thread's own count drops
  // below what it allocated.
  handed.clear();
  s = NodeArenaStats();
  EXPECT_EQ(s.allocated, before.allocated + kBuilt);
  EXPECT_EQ(s.live, before.live + kBuilt - kHanded);
  EXPECT_EQ(LiveNodeCount(), s.live);
  {
    MutexLock lock(park.mu);
    park.leave = true;
    park.cv.SignalAll();
  }
  worker.join();
  // The worker's cache is gone; the pool folded its counts in at exit.
  s = NodeArenaStats();
  EXPECT_EQ(s.allocated, before.allocated + kBuilt);
  EXPECT_EQ(s.live, before.live);
  EXPECT_EQ(LiveNodeCount(), before.live);
  DrainNodeArenaThreadCache();
  s = NodeArenaStats();
  EXPECT_EQ(s.carved, s.live + s.free_shared);
}

}  // namespace
}  // namespace hyder
