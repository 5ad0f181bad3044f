#include "tree/node_pool.h"

#include <atomic>
#include <new>
#include <vector>

#include "common/registry.h"
#include "common/thread_annotations.h"
#include "tree/node.h"

// Under AddressSanitizer a free slot is poisoned, so a node used after its
// last reference dropped is reported although its slot stays in the pool.
// Elsewhere the macros expand to nothing.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace hyder {

namespace {

// Payload heap-fallback counters: only payloads above the inline cap
// touch them. Node counts live in each thread's cache (ThreadCache).
std::atomic<uint64_t> g_payload_heap_allocs{0};
std::atomic<uint64_t> g_payload_heap_frees{0};

/// Slots move between the shared pool and thread caches in batches of
/// this size; a cache holds at most two batches before draining one.
constexpr size_t kBatch = 64;
constexpr size_t kCacheCap = 2 * kBatch;
/// Node slots per slab obtained from the OS.
constexpr size_t kSlotsPerSlab = 1024;

struct ThreadCache;

/// The shared pool: carves slabs of `kSlotsPerSlab` Node-sized slots and
/// recycles freed slots through one free list. Every operation takes the
/// mutex, so callers move slots in batches. Slabs are never returned:
/// the pool lives for the whole process. The pool also knows every live
/// thread cache, so it can sum their node counters (`AddStats`).
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

  /// Adds a thread's cache to the set `AddStats` sums.
  void Register(ThreadCache* cache) EXCLUDES(mu_);
  /// Removes an exiting thread's cache, folding its counts into the
  /// pool's own so the sums stay exact.
  void Unregister(ThreadCache* cache) EXCLUDES(mu_);

  /// Fills the node-count and slab fields of `s`.
  void AddStats(ArenaStats* s) const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<void*> slabs_ GUARDED_BY(mu_);
  std::vector<void*> free_ GUARDED_BY(mu_);
  char* bump_ GUARDED_BY(mu_) = nullptr;
  size_t bump_left_ GUARDED_BY(mu_) = 0;
  uint64_t carved_ GUARDED_BY(mu_) = 0;
  std::vector<ThreadCache*> caches_ GUARDED_BY(mu_);
  /// What exited threads' caches counted.
  uint64_t exited_allocated_ GUARDED_BY(mu_) = 0;
  int64_t exited_live_ GUARDED_BY(mu_) = 0;
};

/// The pool is deliberately leaked: thread caches drain on thread exit,
/// which can run after static destructors on the main thread.
SlotPool& Pool() {
  static SlotPool* pool = new SlotPool();
  return *pool;
}

/// A thread's free slots and its node counters. Only the owning thread
/// writes the counters, so each update is a plain load and store of its
/// own value with no locked instruction; other threads only read them,
/// under the pool mutex (`SlotPool::AddStats`). A sum over every cache
/// is exact once the threads that allocate or free have synchronized
/// with the reader (joined, or handed off through a lock).
struct ThreadCache {
  void* slots[kCacheCap];
  size_t n = 0;
  std::atomic<uint64_t> allocated{0};
  /// Allocations minus frees on this thread; negative on a thread that
  /// frees nodes another thread built.
  std::atomic<int64_t> live{0};

  ThreadCache() { Pool().Register(this); }
  ~ThreadCache() {
    Drain();
    Pool().Unregister(this);
  }

  void Drain() {
    if (n > 0) {
      Pool().DeallocateBatch(slots, n);
      n = 0;
    }
  }
};

void SlotPool::Register(ThreadCache* cache) {
  MutexLock lock(mu_);
  caches_.push_back(cache);
}

void SlotPool::Unregister(ThreadCache* cache) {
  MutexLock lock(mu_);
  // relaxed: the exiting thread reads its own counters.
  exited_allocated_ += cache->allocated.load(std::memory_order_relaxed);
  exited_live_ += cache->live.load(std::memory_order_relaxed);
  for (ThreadCache*& c : caches_) {
    if (c == cache) {
      c = caches_.back();
      caches_.pop_back();
      break;
    }
  }
}

void SlotPool::AddStats(ArenaStats* s) const {
  MutexLock lock(mu_);
  uint64_t allocated = exited_allocated_;
  int64_t live = exited_live_;
  for (const ThreadCache* c : caches_) {
    // relaxed: a single-writer counter; the caller synchronizes with the
    // writers before it needs an exact sum (see ThreadCache).
    allocated += c->allocated.load(std::memory_order_relaxed);
    live += c->live.load(std::memory_order_relaxed);
  }
  s->allocated = allocated;
  // Read while other threads allocate and free, the sum can miss an
  // allocation whose free it counts; report such a snapshot as empty.
  s->live = live > 0 ? static_cast<uint64_t>(live) : 0;
  s->slabs = slabs_.size();
  s->slab_bytes = uint64_t(slabs_.size()) * sizeof(Node) * kSlotsPerSlab;
  s->carved = carved_;
  s->free_shared = free_.size();
}

ThreadCache& Cache() {
  // Touch the pool first so it outlives every cache's destructor.
  Pool();
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace

void* AllocateNodeSlot() {
  ThreadCache& cache = Cache();
  // relaxed: single-writer counters, read under the pool mutex (ThreadCache).
  cache.allocated.store(cache.allocated.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  cache.live.store(cache.live.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  if (cache.n == 0) {
    Pool().AllocateBatch(cache.slots, kBatch);
    cache.n = kBatch;
  }
  void* slot = cache.slots[--cache.n];
  ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(Node));
  return slot;
}

void ReleaseNodeSlot(void* slot) {
  ThreadCache& cache = Cache();
  // relaxed: single-writer counter, read under the pool mutex (ThreadCache).
  cache.live.store(cache.live.load(std::memory_order_relaxed) - 1,
                   std::memory_order_relaxed);
  if (cache.n == kCacheCap) {
    // Keep one batch locally; return the other so a free-heavy thread
    // feeds an allocation-heavy one.
    Pool().DeallocateBatch(cache.slots + kBatch, kBatch);
    cache.n = kBatch;
  }
  ASAN_POISON_MEMORY_REGION(slot, sizeof(Node));
  cache.slots[cache.n++] = slot;
}

void DrainNodeArenaThreadCache() { Cache().Drain(); }

ArenaStats NodeArenaStats() {
  ArenaStats s;
  // relaxed: stats snapshot; each counter is independently monotonic and
  // the snapshot makes no cross-counter consistency promise.
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

uint64_t LiveNodeCount() { return NodeArenaStats().live; }

}  // namespace hyder
