#include "meld/threaded_pipeline.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/trace.h"

namespace hyder {

namespace {
PipelineConfig EngineConfig(const PipelineConfig& config) {
  PipelineConfig engine = config;
  engine.premeld_threads = 0;  // Premeld runs in this class's workers.
  return engine;
}

/// Upper bound on sequences in flight between FeedRaw and their decision:
/// every premeld input queue (t * qcap) plus one item held by each premeld
/// worker (t), the hand-off ring (qcap), the meld thread's in-hand item and
/// pending group member, with slack. Sizes the feed-timestamp ring so a
/// slot is never overwritten before its stamp is consumed.
size_t FeedTsSlots(const PipelineConfig& config) {
  const size_t qcap = std::max<size_t>(1, config.stage_queue_capacity);
  const size_t t = size_t(std::max(0, config.premeld_threads));
  return (t + 1) * qcap + t + 8;
}
}  // namespace

ThreadedPipeline::ThreadedPipeline(
    const PipelineConfig& config, DatabaseState initial,
    NodeResolver* resolver, std::function<void(const NodePtr&)> registrar,
    DecisionCallback on_decision, DecodeSink on_decode)
    : config_(config),
      engine_(EngineConfig(config), initial, resolver, registrar),
      resolver_(resolver),
      on_decision_(std::move(on_decision)),
      on_decode_(std::move(on_decode)),
      ring_(std::max<size_t>(1, config.stage_queue_capacity),
            initial.seq + 1),
      feed_ts_(FeedTsSlots(config)),
      durable_to_decision_us_(MetricsRegistry::Global().histogram(
          "pipeline.durable_to_decision_us")),
      fed_seq_(initial.seq) {
  for (int t = 0; t < config_.premeld_threads; ++t) {
    // Premeld thread ids 2..t+1, matching SequentialPipeline's fixed slots
    // so both engines generate identical ephemeral identities (§3.4).
    pm_allocs_.push_back(
        std::make_unique<EphemeralAllocator>(2 + uint32_t(t)));
    pm_allocs_.back()->registrar = registrar;
    pm_queues_.push_back(
        std::make_unique<BoundedQueue<IntentionAssembler::Completed>>(
            std::max<size_t>(1, config.stage_queue_capacity)));
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  ring_.SetBlockedHistograms(
      registry.histogram("pipeline.handoff_push_blocked_us"),
      registry.histogram("pipeline.handoff_pop_blocked_us"));
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
    threads_.emplace_back([this, t] { PremeldWorker(t); });
  }
  threads_.emplace_back([this] { MeldWorker(); });
}

Result<IntentionPtr> ThreadedPipeline::DecodeRaw(
    const IntentionAssembler::Completed& raw, WorkerStats* stats) {
  if (config_.stage_probe) {
    HYDER_RETURN_IF_ERROR(
        config_.stage_probe(PipelineStage::kDecode, raw.seq));
  }
  TraceSpan span(TraceStage::kDecode, raw.seq);
  CpuStopwatch cpu;
  HYDER_ASSIGN_OR_RETURN(
      IntentionPtr intent,
      DeserializeIntention(raw.payload, raw.seq, raw.block_count,
                           raw.txn_id));
  stats->deserialize.cpu_nanos += cpu.ElapsedNanos();
  stats->deserialize.nodes_visited += intent->node_count;
  if (on_decode_) on_decode_(raw.seq, intent);
  return intent;
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
  if (config_.premeld_threads == 0) {
    // No premeld stage: decode inline on the feeder (the single-threaded
    // path) and hand straight to the meld thread.
    auto decoded = DecodeRaw(raw, &feeder_stats_);
    if (!decoded.ok()) {
      Poison(decoded.status());
      return decoded.status();
    }
    if (!ring_.Push(seq, std::move(*decoded))) return FirstError();
    return Status::OK();
  }
  const int thread = PremeldThreadFor(seq, config_.premeld_threads);
  if (!pm_queues_[thread]->Push(std::move(raw))) return FirstError();
  return Status::OK();
}

void ThreadedPipeline::Close() {
  if (closed_.exchange(true)) return;
  if (config_.premeld_threads == 0) {
    ring_.Close();
  } else {
    for (auto& q : pm_queues_) q->Close();
  }
}

void ThreadedPipeline::Join() {
  if (!started_) return;
  const size_t pm_count = pm_queues_.size();
  for (size_t i = 0; i < pm_count; ++i) {
    if (threads_[i].joinable()) threads_[i].join();
  }
  // All premeld outputs are in the hand-off ring now.
  ring_.Close();
  if (threads_.back().joinable()) threads_.back().join();
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
  for (auto& q : pm_queues_) q->Close();
  ring_.Close();
  engine_.states().Shutdown();  // Wake premeld waiters.
}

Status ThreadedPipeline::FirstError() const {
  MutexLock lock(error_mu_);
  return first_error_.ok()
             ? Status::Aborted("pipeline closed")
             : first_error_;
}

void ThreadedPipeline::PremeldWorker(int thread_index) {
  BoundedQueue<IntentionAssembler::Completed>& queue =
      *pm_queues_[thread_index];
  WorkerStats& ws = *worker_stats_[thread_index];
  while (auto raw = queue.Pop()) {
    const uint64_t seq = raw->seq;
    auto decoded = DecodeRaw(*raw, &ws);
    if (!decoded.ok()) {
      Poison(decoded.status());
      return;
    }
    IntentionPtr intent = std::move(*decoded);
    if (config_.stage_probe) {
      // Same boundary the sequential engine probes before its premeld
      // stage; the embedded engine (t == 0) does not re-fire it.
      Status probed = config_.stage_probe(PipelineStage::kPremeld, seq);
      if (!probed.ok()) {
        Poison(probed);
        return;
      }
    }
    TraceSpan span(TraceStage::kPremeld, seq);
    CpuStopwatch cpu;
    MeldWork work;
    auto out = RunPremeld(intent, engine_.states(), config_.premeld_threads,
                          config_.premeld_distance,
                          pm_allocs_[thread_index].get(), resolver_, &work,
                          config_.disable_graft_fastpath);
    if (!out.ok()) {
      if (!out.status().IsTimedOut()) Poison(out.status());
      return;
    }
    work.cpu_nanos = cpu.ElapsedNanos();
    ws.premeld += work;
    if (out->skipped) ws.skips++;
    if (out->intention->known_aborted) ws.aborts++;
    ws.killed_nodes += out->killed_nodes;
    ws.killed_nodes_materialized += out->killed_nodes_materialized;
    {
      // The knobs this worker just consumed; the embedded engine cannot
      // stamp them (it runs with premeld_threads == 0).
      ConfigEcho echo;
      echo.premeld_threads = config_.premeld_threads;
      echo.premeld_distance = config_.premeld_distance;
      echo.disable_graft_fastpath = config_.disable_graft_fastpath ? 1 : 0;
      ws.echo.Observe(echo);
    }
    if (!ring_.Push(seq, std::move(out->intention))) return;
  }
}

void ThreadedPipeline::MeldWorker() {
  while (auto item = ring_.PopNext()) {
    // Snapshot-consistency contract (see StatsSnapshot): bump intentions
    // before melding, the decision counters after, so a concurrent reader
    // never sees committed + aborted > intentions.
    // relaxed: the counter itself carries no payload; the <= invariant
    // only needs this store to precede the release stores of the decision
    // counters, which program order on this single worker already gives
    // the snapshot's paired acquire loads.
    meld_intentions_.fetch_add(1, std::memory_order_relaxed);
    auto decisions = engine_.Process(std::move(*item));
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
  if (!joined_.load(std::memory_order_acquire)) {
    // Mid-run: the engine's PipelineStats and the per-worker counters are
    // thread-confined until Join, so report only the atomically mirrored
    // headline counters plus the (internally locked) ring counters.
    // Read order matters: decision counters first (acquire), intentions
    // last — paired with MeldWorker's intentions-before / decisions-after
    // stores, this guarantees committed + aborted <= intentions.
    PipelineStats out;
    out.committed = meld_committed_.load(std::memory_order_acquire);
    out.aborted = meld_aborted_.load(std::memory_order_acquire);
    // relaxed: intentions only needs monotonicity here; the acquire loads
    // above pair with the worker's release stores for the <= invariant.
    out.intentions = meld_intentions_.load(std::memory_order_relaxed);
    const SeqRing<IntentionPtr>::Stats ring_stats = ring_.stats();
    out.handoff_blocked_pushes = ring_stats.blocked_pushes;
    out.handoff_blocked_pops = ring_stats.blocked_pops;
    out.handoff_blocked_push_nanos = ring_stats.blocked_push_nanos;
    out.handoff_blocked_pop_nanos = ring_stats.blocked_pop_nanos;
    return out;
  }
  PipelineStats out = engine_.stats();
  // Per-worker counters, merged on snapshot (valid after Join; the joins
  // provide the happens-before edges). The embedded engine also tallies
  // premeld aborts when known-aborted intentions reach final meld; keep the
  // engine's count for decisions and report the stage-detected counts here.
  out.deserialize = feeder_stats_.deserialize;
  out.premeld = MeldWork{};
  out.premeld_skips = 0;
  out.premeld_aborts = 0;
  for (const auto& ws : worker_stats_) {
    out.deserialize += ws->deserialize;
    out.premeld += ws->premeld;
    out.premeld_skips += ws->skips;
    out.premeld_aborts += ws->aborts;
    out.premeld_killed_nodes += ws->killed_nodes;
    out.premeld_killed_nodes_materialized += ws->killed_nodes_materialized;
    out.config_echo.Observe(ws->echo);
  }
  const SeqRing<IntentionPtr>::Stats ring_stats = ring_.stats();
  out.handoff_blocked_pushes = ring_stats.blocked_pushes;
  out.handoff_blocked_pops = ring_stats.blocked_pops;
  out.handoff_blocked_push_nanos = ring_stats.blocked_push_nanos;
  out.handoff_blocked_pop_nanos = ring_stats.blocked_pop_nanos;
  return out;
}

}  // namespace hyder
