#ifndef HYDER2_TREE_NODE_POOL_H_
#define HYDER2_TREE_NODE_POOL_H_

// Pooled allocation of tree nodes (§5.3: node churn, not I/O, bounds
// throughput once the log is fast). Every Node in the system — COW
// clones, meld ephemerals, deserialized intention nodes, checkpoint
// loads — lives in a fixed-size slot carved from a process-lifetime slab
// pool. Each thread keeps a small cache of free slots and refills/drains
// it against the shared pool in batches, so the steady-state hot path
// (allocate a node, drop a node) performs no locking and no malloc.
//
// Pooling is memory management only: node identity is `vn`, never the
// address, so recycling a slot cannot affect meld determinism, conflict
// decisions, or checkpoint bytes.

#include <cstddef>

#include "common/metrics.h"

namespace hyder {

/// Payloads at most this long are stored inline in the node slot; longer
/// ones fall back to a heap buffer (counted in ArenaStats). 32 bytes
/// covers the benchmark default (16 B) with headroom.
inline constexpr size_t kNodeInlinePayloadCap = 32;

/// Returns one raw node slot (uninitialized storage for a Node).
void* AllocateNodeSlot();

/// Returns a slot to the calling thread's cache (draining to the shared
/// pool in batches). The Node must already be destroyed.
void ReleaseNodeSlot(void* slot);

/// Snapshot of the arena counters.
ArenaStats NodeArenaStats();

/// Flushes the calling thread's slot cache to the shared pool. Worker
/// threads drain automatically at thread exit; tests call this on the
/// main thread before reconciling stats.
void DrainNodeArenaThreadCache();

/// Payload heap-fallback accounting (called by PayloadStore).
void CountPayloadHeapAlloc();
void CountPayloadHeapFree();

}  // namespace hyder

#endif  // HYDER2_TREE_NODE_POOL_H_
