#ifndef HYDER2_MELD_THREADED_PIPELINE_H_
#define HYDER2_MELD_THREADED_PIPELINE_H_

#include <memory>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "common/registry.h"
#include "meld/pipeline.h"
#include "txn/codec.h"

namespace hyder {

/// The multithreaded driver of the meld pipeline of Fig. 2: worker threads
/// decode and premeld in parallel, and the thread that calls `Feed` runs
/// group and final meld, as `HyderServer::Poll` does. It runs no stage body
/// of its own: workers call the engine's `Decode` and `Premeld`, the caller
/// its `Meld`, so decisions and states are the sequential engine's by
/// construction (§3.4; the equivalence tests check it bit for bit).
///
/// Stage layout (t = premeld threads, L = max(1, t) lanes; intention v
/// belongs to lane v mod L):
///   Feed (caller, log order) -> lane input FIFO
///     -> lane worker: Decode and, at t > 0, Premeld (which blocks on
///        StateTable::WaitFor, Algorithm 1), in log order
///     -> lane hand-off FIFO
///     -> caller: pops v from lane v mod L, so it meets the intentions in
///        log order without a reorder buffer, and runs Meld
///
/// Sizing. The caller melds the oldest intention once more than
/// `depth` = L * max(d, 1) are in flight: each lane runs d of its
/// intentions ahead of the meld, which at t > 0 is the lookahead premeld
/// can use (an intention fed t*d after the oldest premelds against the
/// state just before it, so each one fed can premeld at once), and at
/// t = 0 gives the lone decode worker as much slack. The oldest unmelded
/// intention u premelds against state u - t*d - 1, which with d >= 1 is
/// always published: the caller has published every state before u, or
/// every state before u - 1 when u - 1 is a buffered odd group member.
/// So the caller's pop of u always returns provided the caller never sleeps
/// on a push, and it does not: each lane's FIFOs hold the lane's share,
/// max(d, 1) + 1, of the depth + 1 intentions in flight during a Feed, so
/// no push ever sleeps, the workers' included.
///
/// Decode placement does not affect determinism: DeserializeIntention is a
/// pure function of (payload, seq) — node identities are computed from the
/// log address, and external references stay lazy — so decoding in a worker
/// yields the same intention the caller would have produced.
///
/// Every member function must be called from the one thread that drives
/// the pipeline; that includes reading `stats()` and the "pipeline.*"
/// metrics this registers, as with the server's metrics provider.
class ThreadedPipeline {
 public:
  /// Invoked on the worker thread for every intention it decodes — the
  /// server's hook to populate its intention cache with the intention's
  /// view (resolver CacheIntention).
  using DecodeSink = std::function<void(uint64_t seq, const IntentionPtr&)>;

  /// Starts the workers.
  ThreadedPipeline(const PipelineConfig& config, DatabaseState initial,
                   NodeResolver* resolver,
                   std::function<void(const NodePtr&)> registrar,
                   DecodeSink on_decode = nullptr);
  /// Stops and joins the workers without melding what is still in flight.
  ~ThreadedPipeline();

  ThreadedPipeline(const ThreadedPipeline&) = delete;
  ThreadedPipeline& operator=(const ThreadedPipeline&) = delete;

  /// Feeds the next intention in log order as block assembly emits it,
  /// still encoded, to its lane's worker. Once more than `depth` intentions
  /// are in flight, melds the oldest on this thread, waiting for its worker
  /// if need be (the back-pressure that throttles the executors, §5.2),
  /// and appends the decisions that completed to `*decisions`. An error of
  /// any stage is returned at the intention that raised it, after every
  /// earlier decision, and every later call returns it again.
  Status Feed(IntentionAssembler::Completed raw,
              std::vector<MeldDecision>* decisions);

  /// Ends the stream: melds every intention in flight and the trailing
  /// unpaired group member, appending their decisions, and joins the
  /// workers. Fails as Feed does; no call may follow.
  Status Finish(std::vector<MeldDecision>* decisions);

  /// The state table (shared with premeld waiters and executors).
  StateTable& states() { return engine_.states(); }

  /// The engine's stats and the lanes' FIFO sleeps. The decode and premeld
  /// stages' counters are the workers' until `Finish` joins them and merges
  /// them in.
  PipelineStats stats() const;

 private:
  /// Intention v's lane is v mod L. The lane's worker runs Decode and
  /// Premeld for the lane's intentions in log order and hands each one, or
  /// the error that stopped it, to the caller on `handoff` in that order.
  struct Lane {
    Lane(size_t capacity, LatencyHistogram* push_blocked_us,
         LatencyHistogram* pop_blocked_us)
        : input(capacity, push_blocked_us),
          handoff(capacity, push_blocked_us, pop_blocked_us) {}
    BoundedQueue<IntentionAssembler::Completed> input;
    BoundedQueue<Result<IntentionPtr>> handoff;
    /// Decode and premeld stats, written only by the lane's worker until
    /// Finish joins it; on cache lines of their own, away from the FIFOs
    /// the caller touches.
    alignas(64) PipelineStats stats;
  };

  Lane& LaneFor(uint64_t seq) { return *lanes_[seq % lanes_.size()]; }
  void Worker(Lane* lane);
  /// Pops the oldest intention in flight and melds it.
  Status MeldNext(std::vector<MeldDecision>* decisions);
  /// Melds everything in flight, then the buffered group member.
  Status Drain(std::vector<MeldDecision>* decisions);
  /// Closes every FIFO, wakes premeld waiters and joins the workers.
  void Stop();

  /// The stages: Meld and Flush run on the caller, each lane's Premeld on
  /// that lane's worker, Decode on the workers (see SequentialPipeline's
  /// threading contract).
  SequentialPipeline engine_;
  const DecodeSink on_decode_;
  /// Intentions in flight between two Feed calls (see the class comment).
  const uint64_t depth_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
  uint64_t fed_seq_;     ///< Last sequence fed.
  uint64_t melded_seq_;  ///< Last sequence popped from a hand-off.
  /// OK while the stream is open; afterwards the error that ended it, or
  /// InvalidArgument once Finish succeeded.
  Status end_;

  /// Publishes "pipeline.*" fields (via stats()) to the global
  /// MetricsRegistry. Declared last so the provider is unregistered before
  /// any member it reads is destroyed.
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_MELD_THREADED_PIPELINE_H_
