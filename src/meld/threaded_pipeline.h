#ifndef HYDER2_MELD_THREADED_PIPELINE_H_
#define HYDER2_MELD_THREADED_PIPELINE_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/registry.h"
#include "common/thread_annotations.h"
#include "meld/pipeline.h"
#include "txn/codec.h"

namespace hyder {

/// The multithreaded driver of the meld pipeline of Fig. 2: premeld worker
/// threads run in parallel with a group-meld/final-meld thread, the
/// structure the paper deploys. It runs no stage body of its own: workers
/// call the engine's `Decode` and `Premeld`, the meld thread calls its
/// `Meld`, so decisions and states are the sequential engine's by
/// construction (§3.4; the equivalence tests check it bit for bit).
///
/// Stage layout (t = premeld threads; intention v belongs to lane v mod t):
///   FeedRaw (caller thread, log order)
///     -> lane input FIFOs
///     -> premeld workers, one per lane: Decode + Premeld, in log order
///        (Premeld blocks on StateTable::WaitFor, Algorithm 1)
///     -> lane hand-off FIFOs
///     -> meld thread: pops v from lane v mod t, so it meets the
///        intentions in log order without a reorder buffer, and runs Meld
/// At t == 0 the feeder runs Decode and Premeld inline and feeds the one
/// hand-off FIFO.
///
/// Decode placement does not affect determinism: DeserializeIntention is a
/// pure function of (payload, seq) — node identities are computed from the
/// log address, and external references stay lazy — so decoding in a worker
/// yields the same intention the feeder would have produced.
///
/// Decisions are delivered through the callback from the meld thread.
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
  ///    MeldWork, resolver locks, ...) is the engine's stats plus every
  ///    lane's — the joins provide the happens-before edges.
  ///  * Mid-run, only the headline counters (intentions / committed /
  ///    aborted) and the hand-off FIFO counters are populated, read from
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
  /// Intention v's lane is v mod t (lane 0 at t == 0). Each lane's thread —
  /// its premeld worker, or the feeder at t == 0 — runs Decode and Premeld
  /// for the lane's intentions in log order and emits them on `handoff` in
  /// that order.
  struct Lane {
    Lane(size_t capacity, LatencyHistogram* push_blocked_us,
         LatencyHistogram* pop_blocked_us)
        : input(capacity),
          handoff(capacity, push_blocked_us, pop_blocked_us) {}
    BoundedQueue<IntentionAssembler::Completed> input;  ///< Unused at t == 0.
    BoundedQueue<IntentionPtr> handoff;
    /// Decode and premeld stats, written only by the lane's thread and read
    /// by StatsSnapshot after Join; on cache lines of their own, away from
    /// the FIFOs other threads touch.
    alignas(64) PipelineStats stats;
  };

  Lane& LaneFor(uint64_t seq);
  void PremeldWorker(Lane* lane);
  void MeldWorker(uint64_t first_seq);
  /// Decode + premeld stages for one intention, on the lane's thread.
  Result<IntentionPtr> DecodeAndPremeld(
      const IntentionAssembler::Completed& raw, PipelineStats* stats);
  /// Meld-thread decision fan-out: updates the mid-run counters and the
  /// durable->decision histogram, then invokes the callback.
  void DeliverDecisions(const std::vector<MeldDecision>& decisions);
  void Poison(const Status& status) EXCLUDES(error_mu_);

  const PipelineConfig config_;
  /// The stages. Meld/Flush run on the meld thread only, each lane's
  /// Premeld on that lane's thread, Decode anywhere (see SequentialPipeline's
  /// threading contract); the caller may touch the rest only after Join.
  // hyder-check: allow(guard-completeness): stage confinement, see above
  SequentialPipeline engine_;
  // hyder-check: allow(guard-completeness): set before Start, read-only after
  DecisionCallback on_decision_;
  // hyder-check: allow(guard-completeness): set before Start, read-only after
  DecodeSink on_decode_;
  /// Sized in the constructor and never resized; the FIFOs are internally
  /// locked and each lane's stats are confined to its thread until Join.
  // hyder-check: allow(guard-completeness): per-lane confinement
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Feed-timestamp ring for the durable→decision latency histogram: slot
  /// `seq % size` holds the NowNanos stamp taken when FeedRaw accepted the
  /// sequence. Sized past the pipeline's in-flight bound (both FIFO sets +
  /// workers + the meld thread's pending group member), so a slot's stamp is
  /// consumed before the next lap overwrites it.
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
