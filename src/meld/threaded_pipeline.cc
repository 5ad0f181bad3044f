#include "meld/threaded_pipeline.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/trace.h"

namespace hyder {

namespace {
/// Upper bound on sequences in flight between FeedRaw and their decision:
/// every lane's input and hand-off FIFO (2t * qcap, or qcap at t == 0),
/// one item held by each premeld worker (t), the meld thread's in-hand item
/// and pending group member, with slack. Sizes the feed-timestamp ring so a
/// slot is never overwritten before its stamp is consumed.
size_t FeedTsSlots(const PipelineConfig& config) {
  const size_t qcap = std::max<size_t>(1, config.stage_queue_capacity);
  const size_t t = size_t(std::max(0, config.premeld_threads));
  return (2 * t + 1) * qcap + t + 8;
}
}  // namespace

ThreadedPipeline::ThreadedPipeline(
    const PipelineConfig& config, DatabaseState initial,
    NodeResolver* resolver, std::function<void(const NodePtr&)> registrar,
    DecisionCallback on_decision, DecodeSink on_decode)
    : config_(config),
      engine_(config, initial, resolver, std::move(registrar)),
      on_decision_(std::move(on_decision)),
      on_decode_(std::move(on_decode)),
      feed_ts_(FeedTsSlots(config)),
      durable_to_decision_us_(MetricsRegistry::Global().histogram(
          "pipeline.durable_to_decision_us")),
      fed_seq_(initial.seq) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  LatencyHistogram* push_us =
      registry.histogram("pipeline.handoff_push_blocked_us");
  LatencyHistogram* pop_us =
      registry.histogram("pipeline.handoff_pop_blocked_us");
  const size_t qcap = std::max<size_t>(1, config.stage_queue_capacity);
  for (int t = 0; t < std::max(1, config_.premeld_threads); ++t) {
    lanes_.push_back(std::make_unique<Lane>(qcap, push_us, pop_us));
  }
  metrics_ = registry.RegisterProvider(
      "pipeline", [this](const MetricsRegistry::Emit& emit) {
        StatsSnapshot().EmitTo("", emit);
      });
}

ThreadedPipeline::~ThreadedPipeline() {
  if (started_) {
    Close();
    Join();
  }
}

void ThreadedPipeline::Start() {
  started_ = true;
  for (int t = 0; t < config_.premeld_threads; ++t) {
    threads_.emplace_back([this, t] { PremeldWorker(lanes_[t].get()); });
  }
  threads_.emplace_back([this, first = fed_seq_ + 1] { MeldWorker(first); });
}

ThreadedPipeline::Lane& ThreadedPipeline::LaneFor(uint64_t seq) {
  if (config_.premeld_threads == 0) return *lanes_[0];
  return *lanes_[PremeldThreadFor(seq, config_.premeld_threads)];
}

Result<IntentionPtr> ThreadedPipeline::DecodeAndPremeld(
    const IntentionAssembler::Completed& raw, PipelineStats* stats) {
  HYDER_ASSIGN_OR_RETURN(IntentionPtr intent, engine_.Decode(raw, stats));
  if (on_decode_) on_decode_(raw.seq, intent);
  return engine_.Premeld(std::move(intent), stats);
}

Status ThreadedPipeline::FeedRaw(IntentionAssembler::Completed raw) {
  if (poisoned_.load(std::memory_order_acquire)) return FirstError();
  if (closed_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("pipeline already closed");
  }
  const uint64_t seq = raw.seq;
  if (seq != fed_seq_ + 1) {
    return Status::InvalidArgument("intentions must be fed in log order");
  }
  fed_seq_ = seq;
  // Stamp for the durable->decision histogram: the intention is durable
  // (read back from the log) when it reaches the pipeline.
  feed_ts_[seq % feed_ts_.size()].store(Stopwatch::NowNanos(),
                                        std::memory_order_release);
  Lane& lane = LaneFor(seq);
  if (config_.premeld_threads > 0) {
    if (!lane.input.Push(std::move(raw), seq)) return FirstError();
    return Status::OK();
  }
  // No premeld workers: the feeder is lane 0's thread.
  auto intent = DecodeAndPremeld(raw, &lane.stats);
  if (!intent.ok()) {
    Poison(intent.status());
    return intent.status();
  }
  if (!lane.handoff.Push(std::move(*intent), seq)) return FirstError();
  return Status::OK();
}

void ThreadedPipeline::Close() {
  if (closed_.exchange(true)) return;
  for (auto& lane : lanes_) {
    // A worker closes its hand-off once its input drains; at t == 0 the
    // feeder was the hand-off's only producer.
    if (config_.premeld_threads == 0) {
      lane->handoff.Close();
    } else {
      lane->input.Close();
    }
  }
}

void ThreadedPipeline::Join() {
  if (!started_) return;
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  // Workers are gone: StatsSnapshot may merge their counters from now on
  // (the joins above ordered the writes before this store).
  joined_.store(true, std::memory_order_release);
}

void ThreadedPipeline::Poison(const Status& status) {
  {
    MutexLock lock(error_mu_);
    if (first_error_.ok()) first_error_ = status;
  }
  poisoned_.store(true, std::memory_order_release);
  for (auto& lane : lanes_) {
    lane->input.Close();
    lane->handoff.Close();
  }
  engine_.states().Shutdown();  // Wake premeld waiters.
}

Status ThreadedPipeline::FirstError() const {
  MutexLock lock(error_mu_);
  return first_error_.ok()
             ? Status::Aborted("pipeline closed")
             : first_error_;
}

void ThreadedPipeline::PremeldWorker(Lane* lane) {
  while (auto raw = lane->input.Pop()) {
    const uint64_t seq = raw->seq;
    auto intent = DecodeAndPremeld(*raw, &lane->stats);
    if (!intent.ok()) {
      Poison(intent.status());
      break;
    }
    if (!lane->handoff.Push(std::move(*intent), seq)) break;
  }
  // Every intention of this lane is on the hand-off: the meld thread pops
  // nullopt exactly at the first sequence that was never fed.
  lane->handoff.Close();
}

void ThreadedPipeline::MeldWorker(uint64_t first_seq) {
  for (uint64_t seq = first_seq;; ++seq) {
    auto item = LaneFor(seq).handoff.Pop(seq);
    if (!item) break;
    // Snapshot-consistency contract (see StatsSnapshot): bump intentions
    // before melding, the decision counters after, so a concurrent reader
    // never sees committed + aborted > intentions.
    // relaxed: the counter itself carries no payload; the <= invariant
    // only needs this store to precede the release stores of the decision
    // counters, which program order on this single worker already gives
    // the snapshot's paired acquire loads.
    meld_intentions_.fetch_add(1, std::memory_order_relaxed);
    auto decisions = engine_.Meld(std::move(*item));
    if (!decisions.ok()) {
      Poison(decisions.status());
      return;
    }
    DeliverDecisions(*decisions);
  }
  if (poisoned_.load(std::memory_order_acquire)) return;
  auto tail = engine_.Flush();
  if (!tail.ok()) {
    Poison(tail.status());
    return;
  }
  DeliverDecisions(*tail);
}

void ThreadedPipeline::DeliverDecisions(
    const std::vector<MeldDecision>& decisions) {
  if (!decisions.empty()) {
    const uint64_t now = Stopwatch::NowNanos();
    uint64_t committed = 0;
    uint64_t aborted = 0;
    for (const MeldDecision& d : decisions) {
      if (d.committed) {
        committed++;
      } else {
        aborted++;
      }
      const uint64_t fed =
          feed_ts_[d.seq % feed_ts_.size()].load(std::memory_order_acquire);
      if (fed != 0 && now > fed) {
        durable_to_decision_us_->Add((now - fed) / 1000);
      }
    }
    if (committed != 0) {
      meld_committed_.fetch_add(committed, std::memory_order_release);
    }
    if (aborted != 0) {
      meld_aborted_.fetch_add(aborted, std::memory_order_release);
    }
  }
  if (on_decision_) {
    for (const MeldDecision& d : decisions) on_decision_(d);
  }
}

PipelineStats ThreadedPipeline::StatsSnapshot() const {
  PipelineStats out;
  if (!joined_.load(std::memory_order_acquire)) {
    // Mid-run: the engine's and the lanes' PipelineStats are thread-confined
    // until Join, so report only the atomically mirrored headline counters
    // plus the (internally locked) hand-off counters.
    // Read order matters: decision counters first (acquire), intentions
    // last — paired with MeldWorker's intentions-before / decisions-after
    // stores, this guarantees committed + aborted <= intentions.
    out.committed = meld_committed_.load(std::memory_order_acquire);
    out.aborted = meld_aborted_.load(std::memory_order_acquire);
    // relaxed: intentions only needs monotonicity here; the acquire loads
    // above pair with the worker's release stores for the <= invariant.
    out.intentions = meld_intentions_.load(std::memory_order_relaxed);
  } else {
    // Valid after Join: the joins provide the happens-before edges.
    out = engine_.stats();
    for (const auto& lane : lanes_) out += lane->stats;
  }
  for (const auto& lane : lanes_) {
    const BoundedQueue<IntentionPtr>::Stats q = lane->handoff.stats();
    out.handoff_blocked_pushes += q.blocked_pushes;
    out.handoff_blocked_pops += q.blocked_pops;
    out.handoff_blocked_push_nanos += q.blocked_push_nanos;
    out.handoff_blocked_pop_nanos += q.blocked_pop_nanos;
  }
  return out;
}

}  // namespace hyder
