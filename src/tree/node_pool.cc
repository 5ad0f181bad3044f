#include "tree/node_pool.h"

#include <atomic>
#include <new>
#include <vector>

#include "common/registry.h"
#include "common/thread_annotations.h"
#include "tree/node.h"

namespace hyder {

namespace {

// Global counters. `live` is a single counter (not allocs - frees) so it
// is exact at any instant, as the leak tests require.
std::atomic<uint64_t> g_live{0};
std::atomic<uint64_t> g_allocated{0};
std::atomic<uint64_t> g_payload_heap_allocs{0};
std::atomic<uint64_t> g_payload_heap_frees{0};

/// Slots move between the shared pool and thread caches in batches of
/// this size; a cache holds at most two batches before draining one.
constexpr size_t kBatch = 64;
constexpr size_t kCacheCap = 2 * kBatch;
/// Node slots per slab obtained from the OS.
constexpr size_t kSlotsPerSlab = 1024;

/// The shared pool: carves slabs of `kSlotsPerSlab` Node-sized slots and
/// recycles freed slots through one free list. Every operation takes the
/// mutex, so callers move slots in batches. Slabs are never returned:
/// the pool lives for the whole process.
class SlotPool {
 public:
  /// Fills `out[0..want)` with slots — recycled ones first, then slots
  /// carved from the current (or a fresh) slab.
  void AllocateBatch(void** out, size_t want) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t got = 0;
    while (got < want && !free_.empty()) {
      out[got++] = free_.back();
      free_.pop_back();
    }
    while (got < want) {
      if (bump_left_ == 0) {
        slabs_.push_back(::operator new(sizeof(Node) * kSlotsPerSlab,
                                        std::align_val_t(alignof(Node))));
        bump_ = static_cast<char*>(slabs_.back());
        bump_left_ = kSlotsPerSlab;
      }
      out[got++] = bump_;
      bump_ += sizeof(Node);
      --bump_left_;
      ++carved_;
    }
  }

  /// Returns `count` slots to the shared free list.
  void DeallocateBatch(void** slots, size_t count) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    free_.insert(free_.end(), slots, slots + count);
  }

  /// Fills the slab fields of `s`.
  void AddStats(ArenaStats* s) const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    s->slabs = slabs_.size();
    s->slab_bytes = uint64_t(slabs_.size()) * sizeof(Node) * kSlotsPerSlab;
    s->carved = carved_;
    s->free_shared = free_.size();
  }

 private:
  mutable Mutex mu_;
  std::vector<void*> slabs_ GUARDED_BY(mu_);
  std::vector<void*> free_ GUARDED_BY(mu_);
  char* bump_ GUARDED_BY(mu_) = nullptr;
  size_t bump_left_ GUARDED_BY(mu_) = 0;
  uint64_t carved_ GUARDED_BY(mu_) = 0;
};

/// The pool is deliberately leaked: thread caches drain on thread exit,
/// which can run after static destructors on the main thread.
SlotPool& Pool() {
  static SlotPool* pool = new SlotPool();
  return *pool;
}

struct ThreadCache {
  void* slots[kCacheCap];
  size_t n = 0;

  ~ThreadCache() { Drain(); }

  void Drain() {
    if (n > 0) {
      Pool().DeallocateBatch(slots, n);
      n = 0;
    }
  }
};

ThreadCache& Cache() {
  // Touch the pool first so it outlives every cache's destructor.
  Pool();
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace

void* AllocateNodeSlot() {
  // relaxed: monotonic arena stats counter; no ordering dependency.
  g_allocated.fetch_add(1, std::memory_order_relaxed);
  g_live.fetch_add(1, std::memory_order_relaxed);
  ThreadCache& cache = Cache();
  if (cache.n == 0) {
    Pool().AllocateBatch(cache.slots, kBatch);
    cache.n = kBatch;
  }
  return cache.slots[--cache.n];
}

void ReleaseNodeSlot(void* slot) {
  // relaxed: monotonic arena stats counter; no ordering dependency.
  g_live.fetch_sub(1, std::memory_order_relaxed);
  ThreadCache& cache = Cache();
  if (cache.n == kCacheCap) {
    // Keep one batch locally; return the other so a free-heavy thread
    // feeds an allocation-heavy one.
    Pool().DeallocateBatch(cache.slots + kBatch, kBatch);
    cache.n = kBatch;
  }
  cache.slots[cache.n++] = slot;
}

void DrainNodeArenaThreadCache() { Cache().Drain(); }

ArenaStats NodeArenaStats() {
  ArenaStats s;
  // relaxed: stats snapshot; each counter is independently monotonic and
  // the snapshot makes no cross-counter consistency promise.
  s.live = g_live.load(std::memory_order_relaxed);
  s.allocated = g_allocated.load(std::memory_order_relaxed);
  s.payload_heap_allocs = g_payload_heap_allocs.load(std::memory_order_relaxed);
  s.payload_heap_frees = g_payload_heap_frees.load(std::memory_order_relaxed);
  Pool().AddStats(&s);
  // Batched refills carve slots ahead of demand, so early on `carved` can
  // exceed `allocated`; saturate to keep this a (tight) lower bound.
  s.recycled = s.allocated > s.carved ? s.allocated - s.carved : 0;
  return s;
}

namespace {
/// Process-lifetime "arena.*" provider: the arena is global, so unlike the
/// per-object server/log providers this one registers once and never
/// unregisters (the handle lives for the life of the process alongside the
/// registry). The pointer is kept in a function-local static so it stays
/// reachable at exit: a namespace-scope const pointer that is never read
/// gets its storage dropped by the optimizer, and LeakSanitizer then
/// reports the (deliberate) allocation as a direct leak.
const ProviderHandle& ArenaMetricsProvider() {
  static const ProviderHandle* const handle =
      new ProviderHandle(MetricsRegistry::Global().RegisterProvider(
          "arena", [](const MetricsRegistry::Emit& emit) {
            NodeArenaStats().EmitTo("", emit);
          }));
  return *handle;
}
[[maybe_unused]] const ProviderHandle& g_arena_metrics =
    ArenaMetricsProvider();
}  // namespace

void CountPayloadHeapAlloc() {
  // relaxed: monotonic arena stats counter; no ordering dependency.
  g_payload_heap_allocs.fetch_add(1, std::memory_order_relaxed);
}

void CountPayloadHeapFree() {
  // relaxed: monotonic arena stats counter; no ordering dependency.
  g_payload_heap_frees.fetch_add(1, std::memory_order_relaxed);
}

// relaxed: monotonic-pair counter read for leak tests at quiesce points.
uint64_t LiveNodeCount() { return g_live.load(std::memory_order_relaxed); }

}  // namespace hyder
