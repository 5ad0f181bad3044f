#ifndef HYDER2_SERVER_RESOLVER_H_
#define HYDER2_SERVER_RESOLVER_H_

#include <atomic>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "log/shared_log.h"
#include "tree/node.h"
#include "txn/intention.h"

namespace hyder {

class FlatIntentionView;

/// Options for the server-side reference resolver.
struct ResolverOptions {
  /// Materialized intentions kept for lazy logged-reference resolution
  /// before LRU eviction (evicted intentions are refetched from the log on
  /// demand — the paper's random log read path, §1/§5.2). Split across the
  /// resolver's shards; the total never exceeds this value.
  size_t intention_cache_capacity = 4096;
};

/// Resolves node references for one server: logged references through a
/// materialized-intention cache backed by the shared log, ephemeral
/// references through the registry fed by the meld pipeline's allocators.
///
/// The intention cache is lock-striped into 8 shards (a constant in
/// resolver.cc, clamped to `intention_cache_capacity` so each shard holds
/// at least one intention): an intention sequence maps to one shard holding
/// its cache entry, LRU position and directory entry, so `Resolve` takes
/// exactly one shard lock. A server resolves on its poll thread, where the
/// meld stages and the executors both run, so the shards pay only under
/// `ThreadedPipeline`, whose premeld workers resolve and cache in parallel
/// with the melding thread (folded into one lock, its t = 2 and t = 5 rows
/// ran 6–8% slower; EXPERIMENTS.md "The caller melds"). Eviction is LRU per
/// shard; with capacity split evenly across shards and sequences striped
/// round-robin (`seq % shards`), the aggregate behaves like a global LRU
/// for the sequential access patterns that matter, and the global capacity
/// bound is exact.
///
/// The ephemeral registry has one lane per allocator thread id (§3.4 names
/// an ephemeral node by its meld thread and that thread's sequence number):
/// final meld registers into lane 0, group meld into lane 1 and premeld
/// worker w into lane 2 + w, each behind its own lock. A lane is an array
/// indexed by sequence, so registering a freshly minted node is an append
/// and a lookup is index arithmetic.
///
/// Ephemeral nodes cannot be refetched (they are never logged, §2); a
/// reference to a swept ephemeral yields `SnapshotTooOld`, which surfaces to
/// the transaction as an abort-and-retry — the same contract as a retired
/// snapshot.
///
/// Every internal lock acquisition bumps the thread-local counter in
/// common/lock_counter.h, which is how the pipeline attributes resolver
/// locking to the stage that performed it.
class ServerResolver : public NodeResolver {
 public:
  ServerResolver(SharedLog* log, ResolverOptions options);

  Result<NodePtr> Resolve(VersionId vn) override;

  /// Records that intention `seq` lives in the given log block positions
  /// (called by the log reader as intentions complete).
  void RecordIntentionBlocks(uint64_t seq, std::vector<uint64_t> positions);

  /// Caches a freshly deserialized intention's view. Cached lookups
  /// materialize nodes lazily through `FlatIntentionView::NodeAt`, which
  /// takes no locks, so it is served directly under the shard lock.
  /// Thread-safe: with parallel decode the premeld workers call this
  /// concurrently.
  void CacheIntention(uint64_t seq, std::shared_ptr<FlatIntentionView> view);

  /// Registers an ephemeral node (meld allocator registrar hook). Ids may
  /// arrive in any order (checkpoint bootstrap registers a restored state's
  /// nodes in post-order); registering an id again replaces its node.
  void RegisterEphemeral(const NodePtr& n);

  /// Installs the checkpoint-anchored resolution floor: the complete
  /// vn -> node map of checkpoint state S (`state_seq`), replacing any
  /// previous pin. After the log prefix below S's blocks is truncated, a
  /// lazy reference created at some c <= S can no longer be refetched from
  /// the log — but any such node alive in a retained state Q >= S was
  /// already alive at S (versions are never resurrected), so the pinned map
  /// answers exactly the lookups truncation made impossible. `Resolve`
  /// falls back to the pin when the log returns `Truncated` or the
  /// directory entry is gone.
  void ReplacePinnedBase(uint64_t state_seq,
                         std::unordered_map<VersionId, NodePtr> nodes);
  uint64_t pinned_state_seq() const;
  size_t pinned_node_count() const;

  /// Drops ephemeral entries that nothing else references, in one pass
  /// over each lane from its oldest entry to its newest. Safe at any time;
  /// affects only this server's memory, never cross-server state.
  /// `HyderServer::Poll` calls it every `ServerOptions::sweep_interval`
  /// melds. Returns the number of entries dropped.
  size_t SweepEphemerals();

  struct DirectoryExport {
    uint64_t seq;
    std::vector<uint64_t> positions;
  };
  /// Snapshot of the intention directory (for checkpoints), sorted by
  /// sequence so checkpoint payload bytes are deterministic.
  std::vector<DirectoryExport> ExportDirectory() const;
  /// Restores directory entries (bootstrap path).
  void ImportDirectory(const std::vector<DirectoryExport>& entries);
  /// Drops every directory entry whose positions all lie below
  /// `low_water`: the log answers such an entry only with `Truncated`, and
  /// `Resolve` serves a missing entry from the pin exactly as it serves a
  /// truncated one. Called by the TruncationCoordinator once it has
  /// advanced the mark, so the directory (and every checkpoint, which
  /// carries it whole) holds only intentions above the last mark. Returns
  /// the number of entries dropped.
  size_t DropDirectoryBelow(uint64_t low_water);

  size_t cached_intentions() const;
  size_t ephemeral_count() const;
  /// Publishes the resolver gauges under `prefix` (MetricsRegistry provider
  /// building block; see common/registry.h). Thread-safe.
  void EmitMetrics(const std::string& prefix, const MetricEmit& emit) const;
  uint64_t refetches() const {
    // Relaxed: a monotonic stats counter read with no ordering dependency.
    return refetches_.load(std::memory_order_relaxed);
  }

 private:
  struct CachedIntention {
    /// Nodes materialize on first lookup, so a cached intention that is
    /// never dereferenced costs no pool allocations.
    std::shared_ptr<FlatIntentionView> view;
    std::list<uint64_t>::iterator lru_pos;
  };
  /// One lock stripe of the intention cache: the cache entries, LRU order
  /// and directory entries (the log positions of each intention's blocks)
  /// of the sequences mapping to this shard.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, CachedIntention> intentions GUARDED_BY(mu);
    std::list<uint64_t> lru GUARDED_BY(mu);  // Front = most recently used.
    std::unordered_map<uint64_t, std::vector<uint64_t>> directory
        GUARDED_BY(mu);
    /// This shard's slice of intention_cache_capacity (set once at
    /// construction, read-only afterwards).
    // hyder-check: allow(guard-completeness): set at construction, read-only
    size_t capacity = 0;
  };
  /// Work counters of one registry lane, summed by EmitMetrics.
  struct LaneCounters {
    uint64_t registrations = 0;
    uint64_t lookups = 0;
    uint64_t retired_lookups = 0;  ///< Lookups answered SnapshotTooOld.
    uint64_t sweep_visited = 0;
    uint64_t sweep_dropped = 0;
  };
  /// The registry entries of one allocator thread id. `window[i]` holds
  /// sequence `base + i` (null once swept), so an allocator's mint order
  /// appends. Registered ids below `base` live in `spill`, keyed by raw
  /// id: the window only ever moves forward, so the two never overlap. An
  /// id past the window's end restarts the window there, and a sweep cuts
  /// the window's mostly-dead prefix; both move the entries they pass to
  /// `spill`, so neither a gap in the ids nor a long-lived node costs
  /// window slots. The overflow lane (thread ids without a lane of their
  /// own) keeps everything in `spill`.
  struct alignas(64) Lane {
    mutable Mutex mu;
    uint64_t base GUARDED_BY(mu) = 0;
    std::deque<NodePtr> window GUARDED_BY(mu);
    std::map<uint64_t, NodePtr> spill GUARDED_BY(mu);
    /// Non-null window slots plus spill entries: the exact registry size.
    size_t live GUARDED_BY(mu) = 0;
    LaneCounters counters GUARDED_BY(mu);

    /// The entry for `vn`, or null when it is absent or swept.
    const NodePtr* Find(VersionId vn) const REQUIRES(mu);
    void Register(const NodePtr& n) REQUIRES(mu);
    /// One oldest-to-newest pass; then cuts the window's sparse prefix.
    size_t Sweep() REQUIRES(mu);
  };

  Shard& ShardFor(uint64_t seq) const {
    return *shards_[seq % shards_.size()];
  }
  Lane& LaneFor(VersionId vn) const;

  Result<NodePtr> ResolveLogged(VersionId vn);
  NodePtr LookupPinned(VersionId vn) const EXCLUDES(pinned_mu_);
  /// The random log read path (§1): fetches `seq`'s blocks and parses
  /// them into a view, with no shard lock held.
  Result<std::shared_ptr<FlatIntentionView>> RefetchIntention(
      uint64_t seq, const std::vector<uint64_t>& positions);
  void TouchLocked(Shard& shard, uint64_t seq) REQUIRES(shard.mu);
  void EvictLocked(Shard& shard) REQUIRES(shard.mu);

  SharedLog* const log_;
  const ResolverOptions options_;

  /// Lock order: at most one shard or lane lock is ever held at a time
  /// (the intention shards and the ephemeral lanes are disjoint id spaces,
  /// and no operation spans two sequences' shards or two lanes while
  /// holding both). `pinned_mu_` is likewise only ever taken alone: the
  /// pinned fallback runs after the shard lock is released.
  /// Both vectors are sized at construction and never resized; each
  /// element synchronizes through its own embedded mutex.
  // hyder-check: allow(guard-completeness): fixed topology, per-element mu
  std::vector<std::unique_ptr<Shard>> shards_;
  // hyder-check: allow(guard-completeness): fixed topology, per-element mu
  std::vector<std::unique_ptr<Lane>> lanes_;
  mutable Mutex pinned_mu_;
  /// Checkpoint state S backing truncated-prefix resolution (see
  /// ReplacePinnedBase). 0 = nothing pinned.
  uint64_t pinned_state_seq_ GUARDED_BY(pinned_mu_) = 0;
  std::unordered_map<VersionId, NodePtr> pinned_nodes_ GUARDED_BY(pinned_mu_);
  /// Atomic (not guarded): incremented under a shard lock but read by the
  /// stats accessor without it.
  std::atomic<uint64_t> refetches_{0};
};

}  // namespace hyder

#endif  // HYDER2_SERVER_RESOLVER_H_
