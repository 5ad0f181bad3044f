#ifndef HYDER2_MELD_THREADED_PIPELINE_H_
#define HYDER2_MELD_THREADED_PIPELINE_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/registry.h"
#include "common/seq_ring.h"
#include "common/thread_annotations.h"
#include "meld/pipeline.h"
#include "txn/codec.h"

namespace hyder {

/// The real multithreaded meld pipeline of Fig. 2: premeld worker threads
/// run in parallel with a group-meld/final-meld thread, exactly the
/// structure the paper deploys. The deterministic index arithmetic of §3.4
/// guarantees the outputs are bit-identical to `SequentialPipeline` under
/// the same configuration — a property the tests verify — so the two
/// engines are interchangeable. This engine is the one that can overlap
/// premeld with final meld on several cores; `pipeline_throughput`
/// measures it against the sequential engine the server runs.
///
/// Stage layout (t = premeld threads):
///   FeedRaw (caller thread, log order)
///     -> per-thread premeld input queues (intention v to thread v mod t)
///     -> premeld workers: decode + premeld
///        (block on StateTable::WaitFor, Algorithm 1)
///     -> seq-indexed hand-off ring (common/seq_ring.h; slot occupancy is
///        the reorder buffer, so no locks on the common path)
///     -> group-meld + final-meld thread (an embedded SequentialPipeline
///        with premeld disabled, preserving the gm/fm semantics verbatim)
///
/// Decode placement does not affect determinism: DeserializeIntention is a
/// pure function of (payload, seq) — node identities are computed from the
/// log address, and external references stay lazy — so decoding in a worker
/// yields the same intention the feeder would have produced.
///
/// Decisions are delivered through the callback from the fm thread.
class ThreadedPipeline {
 public:
  using DecisionCallback = std::function<void(const MeldDecision&)>;
  /// Invoked (from whichever thread decoded) for every intention decoded by
  /// the pipeline — the server's hook to populate its intention cache with
  /// the intention's view (resolver CacheIntention).
  using DecodeSink = std::function<void(uint64_t seq, const IntentionPtr&)>;

  ThreadedPipeline(const PipelineConfig& config, DatabaseState initial,
                   NodeResolver* resolver,
                   std::function<void(const NodePtr&)> registrar,
                   DecisionCallback on_decision,
                   DecodeSink on_decode = nullptr);
  ~ThreadedPipeline();

  ThreadedPipeline(const ThreadedPipeline&) = delete;
  ThreadedPipeline& operator=(const ThreadedPipeline&) = delete;

  /// Launches the worker threads. Call exactly once.
  void Start();

  /// Feeds the next intention in log order as block assembly emits it,
  /// still encoded: a premeld worker deserializes it, so decode cost scales
  /// with `premeld_threads` instead of serializing on the feeder (with
  /// `premeld_threads == 0` the caller thread decodes inline, preserving
  /// the single-threaded path). Blocks when the pipeline is backed up (this
  /// is the back-pressure that ultimately throttles the executors, §5.2).
  /// Fails after Close or on a poisoned pipeline.
  Status FeedRaw(IntentionAssembler::Completed raw);

  /// Ends the input stream: workers drain, the trailing unpaired group
  /// member (if any) is final-melded, and threads exit. Safe to call from
  /// any thread, once FeedRaw callers have stopped.
  void Close();

  /// Waits for all worker threads (implies the stream was Closed).
  void Join();

  /// The state table (shared with premeld waiters and executors).
  StateTable& states() { return engine_.states(); }

  /// Aggregated stats. Safe to call from any thread at any time:
  ///
  ///  * After `Join`, the full per-stage detail (decode/premeld/gm/fm
  ///    MeldWork, resolver locks, ...) is merged from the worker-owned
  ///    counters — the joins provide the happens-before edges.
  ///  * Mid-run, only the headline counters (intentions / committed /
  ///    aborted) and the hand-off ring counters are populated, read from
  ///    atomic mirrors maintained by the meld worker. Invariant: a mid-run
  ///    snapshot never reports committed + aborted > intentions, because
  ///    the worker bumps `intentions` before melding and the decision
  ///    counters (with release ordering) after, while the snapshot reads
  ///    the decision counters first (acquire) and `intentions` second.
  ///    tests/threaded_pipeline_test.cc hammers this invariant.
  PipelineStats StatsSnapshot() const;

  /// First error encountered by any stage, if the pipeline was poisoned.
  Status FirstError() const EXCLUDES(error_mu_);

 private:
  /// Per-worker stage counters, written only by the owning worker thread
  /// while it runs and read by StatsSnapshot after Join (the join provides
  /// the happens-before edge). Merge-on-snapshot replaces the old
  /// stats_mu_-per-intention accounting on the hot path.
  struct WorkerStats {
    MeldWork deserialize;
    MeldWork premeld;
    uint64_t skips = 0;
    uint64_t aborts = 0;
    uint64_t killed_nodes = 0;
    uint64_t killed_nodes_materialized = 0;
    /// Knob values as this worker consumed them (see ConfigEcho); merged
    /// into the snapshot's config_echo after Join.
    ConfigEcho echo;
  };

  void PremeldWorker(int thread_index);
  void MeldWorker();
  /// Meld-thread decision fan-out: updates the mid-run counters and the
  /// durable->decision histogram, then invokes the callback.
  void DeliverDecisions(const std::vector<MeldDecision>& decisions);
  void Poison(const Status& status) EXCLUDES(error_mu_);
  Result<IntentionPtr> DecodeRaw(const IntentionAssembler::Completed& raw,
                                 WorkerStats* stats);

  const PipelineConfig config_;
  /// gm + fm stages, with premeld handled by this class's workers. Confined
  /// to the meld worker thread while it runs (plus the internally locked
  /// StateTable); the caller may touch it again only after Join.
  // hyder-check: allow(guard-completeness): meld-thread confined, see above
  SequentialPipeline engine_;
  NodeResolver* const resolver_;
  // hyder-check: allow(guard-completeness): set before Start, read-only after
  DecisionCallback on_decision_;
  // hyder-check: allow(guard-completeness): set before Start, read-only after
  DecodeSink on_decode_;

  /// Per-premeld-worker resources: slot t is touched only by worker t
  /// (the vectors themselves are sized in the constructor and never
  /// resized while threads run).
  // hyder-check: allow(guard-completeness): per-worker slot confinement
  std::vector<std::unique_ptr<EphemeralAllocator>> pm_allocs_;
  std::vector<std::unique_ptr<BoundedQueue<IntentionAssembler::Completed>>>
      pm_queues_;
  // hyder-check: allow(guard-completeness): per-worker slot confinement
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  /// Decode counters for the t == 0 inline path (feeder thread only).
  // hyder-check: allow(guard-completeness): feeder-thread confined
  WorkerStats feeder_stats_;
  /// Premeld → final-meld hand-off; slot occupancy doubles as the sequence
  /// reorder buffer (see common/seq_ring.h).
  SeqRing<IntentionPtr> ring_;

  /// Feed-timestamp ring for the durable→decision latency histogram: slot
  /// `seq % size` holds the NowNanos stamp taken when FeedRaw accepted the
  /// sequence. Sized past the pipeline's in-flight bound (premeld queues +
  /// workers + hand-off ring + the meld thread's pending group member), so
  /// a slot's stamp is consumed before the next lap overwrites it.
  // hyder-check: allow(guard-completeness): fixed-size array of atomics
  std::vector<std::atomic<uint64_t>> feed_ts_;
  /// Global-registry instruments (process lifetime; see common/registry.h).
  LatencyHistogram* const durable_to_decision_us_;

  /// Mid-run headline counters mirrored by the meld worker (the engine's
  /// own PipelineStats are thread-confined until Join). Ordering contract
  /// documented on StatsSnapshot().
  std::atomic<uint64_t> meld_intentions_{0};
  std::atomic<uint64_t> meld_committed_{0};
  std::atomic<uint64_t> meld_aborted_{0};
  /// Set by Join after all workers exited; selects the full-detail
  /// StatsSnapshot path (the release store pairs with the snapshot's
  /// acquire load, though Join's thread joins already order the counters).
  std::atomic<bool> joined_{false};

  mutable Mutex error_mu_;
  Status first_error_ GUARDED_BY(error_mu_);
  std::atomic<bool> poisoned_{false};

  /// Written only by Start and Join (single-caller contract below).
  // hyder-check: allow(guard-completeness): single-caller confined
  std::vector<std::thread> threads_;
  /// Set by Close (any thread) and read by FeedRaw; atomic so a shutdown
  /// racing the feeder is benign.
  std::atomic<bool> closed_{false};
  /// Single-caller state: FeedRaw/Start/Join must be called from one thread
  /// at a time (the log-poll thread); never touched by workers.
  // hyder-check: allow(guard-completeness): single-caller confined
  uint64_t fed_seq_;
  // hyder-check: allow(guard-completeness): single-caller confined
  bool started_ = false;

  /// Publishes "pipeline.*" fields (via StatsSnapshot, which is mid-run
  /// safe) to the global MetricsRegistry. Declared last so the provider is
  /// unregistered before any member it reads is destroyed.
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_MELD_THREADED_PIPELINE_H_
