#include "meld/threaded_pipeline.h"

#include <algorithm>

namespace hyder {

namespace {
/// One lane per premeld thread, and one at t == 0.
size_t Lanes(const PipelineConfig& config) {
  return size_t(std::max(1, config.premeld_threads));
}
/// Intentions each lane runs ahead of the meld: d, and at least one.
size_t Ahead(const PipelineConfig& config) {
  return size_t(std::max(1, config.premeld_distance));
}
}  // namespace

ThreadedPipeline::ThreadedPipeline(
    const PipelineConfig& config, DatabaseState initial,
    NodeResolver* resolver, std::function<void(const NodePtr&)> registrar,
    DecodeSink on_decode)
    : engine_(config, initial, resolver, std::move(registrar)),
      on_decode_(std::move(on_decode)),
      depth_(Lanes(config) * Ahead(config)),
      fed_seq_(initial.seq),
      melded_seq_(initial.seq) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  LatencyHistogram* push_us =
      registry.histogram("pipeline.handoff_push_blocked_us");
  LatencyHistogram* pop_us =
      registry.histogram("pipeline.handoff_pop_blocked_us");
  // The depth + 1 consecutive sequences in flight during a Feed hold at
  // most Ahead + 1 of any lane's.
  const size_t capacity = Ahead(config) + 1;
  for (size_t l = 0; l < Lanes(config); ++l) {
    lanes_.push_back(std::make_unique<Lane>(capacity, push_us, pop_us));
  }
  metrics_ = registry.RegisterProvider(
      "pipeline", [this](const MetricsRegistry::Emit& emit) {
        stats().EmitTo("", emit);
      });
  for (auto& lane : lanes_) {
    workers_.emplace_back([this, lane = lane.get()] { Worker(lane); });
  }
}

ThreadedPipeline::~ThreadedPipeline() { Stop(); }

void ThreadedPipeline::Worker(Lane* lane) {
  while (auto raw = lane->input.Pop()) {
    Result<IntentionPtr> intent = engine_.Decode(*raw, &lane->stats);
    if (intent.ok()) {
      if (on_decode_) on_decode_(raw->seq, *intent);
      intent = engine_.Premeld(std::move(*intent), &lane->stats);
    }
    const bool failed = !intent.ok();
    // A closed hand-off means the pipeline is stopping; after an error the
    // caller melds nothing past it, so neither needs further work.
    if (!lane->handoff.Push(std::move(intent), raw->seq) || failed) break;
  }
}

Status ThreadedPipeline::Feed(IntentionAssembler::Completed raw,
                              std::vector<MeldDecision>* decisions) {
  HYDER_RETURN_IF_ERROR(end_);
  const uint64_t seq = raw.seq;
  if (seq != fed_seq_ + 1) {
    return Status::InvalidArgument("intentions must be fed in log order");
  }
  fed_seq_ = seq;
  // Never sleeps: the lane's input holds its share of the window.
  LaneFor(seq).input.Push(std::move(raw), seq);
  if (fed_seq_ - melded_seq_ <= depth_) return Status::OK();
  end_ = MeldNext(decisions);
  return end_;
}

Status ThreadedPipeline::MeldNext(std::vector<MeldDecision>* decisions) {
  const uint64_t seq = ++melded_seq_;
  std::optional<Result<IntentionPtr>> intent = LaneFor(seq).handoff.Pop(seq);
  // Only Stop closes a hand-off, and Stop runs on this thread.
  if (!intent) return Status::Aborted("pipeline stopped");
  HYDER_RETURN_IF_ERROR(intent->status());
  HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> melded,
                         engine_.Meld(std::move(**intent)));
  decisions->insert(decisions->end(), melded.begin(), melded.end());
  return Status::OK();
}

Status ThreadedPipeline::Finish(std::vector<MeldDecision>* decisions) {
  HYDER_RETURN_IF_ERROR(end_);
  // The workers drain their inputs and exit.
  for (auto& lane : lanes_) lane->input.Close();
  end_ = Drain(decisions);
  HYDER_RETURN_IF_ERROR(end_);
  Stop();
  for (const auto& lane : lanes_) *engine_.mutable_stats() += lane->stats;
  end_ = Status::InvalidArgument("pipeline already finished");
  return Status::OK();
}

Status ThreadedPipeline::Drain(std::vector<MeldDecision>* decisions) {
  while (melded_seq_ < fed_seq_) HYDER_RETURN_IF_ERROR(MeldNext(decisions));
  HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> tail, engine_.Flush());
  decisions->insert(decisions->end(), tail.begin(), tail.end());
  return Status::OK();
}

void ThreadedPipeline::Stop() {
  for (auto& lane : lanes_) {
    lane->input.Close();
    lane->handoff.Close();
  }
  engine_.states().Shutdown();  // Wakes premeld waiters.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

PipelineStats ThreadedPipeline::stats() const {
  PipelineStats out = engine_.stats();
  for (const auto& lane : lanes_) {
    const auto input = lane->input.stats();
    const auto handoff = lane->handoff.stats();
    out.handoff_blocked_pushes += input.blocked_pushes + handoff.blocked_pushes;
    out.handoff_blocked_push_nanos +=
        input.blocked_push_nanos + handoff.blocked_push_nanos;
    out.handoff_blocked_pops += handoff.blocked_pops;
    out.handoff_blocked_pop_nanos += handoff.blocked_pop_nanos;
  }
  return out;
}

}  // namespace hyder
