#include "server/catchup.h"

namespace hyder {

CatchUpSession::CatchUpSession(SharedLog* log, CatchUpOptions options)
    : log_(log), options_(std::move(options)) {
  metrics_ = MetricsRegistry::Global().RegisterProvider(
      "catchup", [this](const MetricsRegistry::Emit& emit) {
        emit("phase", double(int(phase_)));
        emit("fetch_rounds", double(report_.fetch_rounds));
        emit("replayed_decisions", double(report_.replayed_decisions));
        emit("restarts", double(report_.restarts));
        emit("checkpoint_state_seq", double(report_.checkpoint_state_seq));
      });
}

Status CatchUpSession::Step() {
  switch (phase_) {
    case Phase::kFetchingCheckpoint:
      return StepFetch();
    case Phase::kReplaying:
      return StepReplay();
    case Phase::kServing:
      return Status::OK();
  }
  return Status::Internal("unreachable catch-up phase");
}

Status CatchUpSession::StepFetch() {
  report_.fetch_rounds++;
  if (options_.max_fetch_rounds != 0 &&
      report_.fetch_rounds > options_.max_fetch_rounds) {
    return Status::Unavailable("no usable checkpoint after " +
                               std::to_string(options_.max_fetch_rounds) +
                               " fetch rounds");
  }
  Result<std::optional<CheckpointInfo>> found = FindLatestCheckpoint(*log_);
  if (!found.ok()) {
    // If the log is still unavailable, the next Step re-runs the round.
    // Deterministic errors (the scan skips damaged checkpoints itself) are
    // terminal.
    if (found.status().IsUnavailable()) return Status::OK();
    return found.status();
  }
  if (!found->has_value()) {
    if (log_->LowWaterMark() <= 1) {
      // Pristine log: nothing to bootstrap from, replay from the start.
      server_ = std::make_unique<HyderServer>(log_, options_.server);
      anchor_first_block_ = log_->LowWaterMark();
    } else {
      // A truncated log with no visible checkpoint: the truncation protocol
      // keeps its anchor readable, so this is a race with an in-flight
      // checkpoint write (or its blocks are still landing). Try again.
      return Status::OK();
    }
  } else {
    Result<std::unique_ptr<HyderServer>> boot =
        BootstrapFromCheckpoint(log_, **found, options_.server);
    if (!boot.ok()) {
      const Status& s = boot.status();
      // Truncated/NotFound: truncation advanced past this anchor between
      // the scan and the bootstrap reads — a newer checkpoint exists, so
      // re-scan. Unavailable: storage hiccup outlasting the read retries.
      if (s.IsTruncated() || s.IsNotFound() || s.IsUnavailable()) {
        report_.restarts++;
        return Status::OK();
      }
      return s;
    }
    server_ = std::move(*boot);
    anchor_first_block_ = (*found)->first_block;
    report_.checkpoint_state_seq = (*found)->state_seq;
  }
  server_->set_serve_state(HyderServer::ServeState::kCatchingUp);
  phase_ = Phase::kReplaying;
  return Status::OK();
}

Status CatchUpSession::StepReplay() {
  if (log_->LowWaterMark() > anchor_first_block_) {
    // A newer checkpoint anchored a truncation while we replayed. Even if
    // our cursor is already past the new mark, our pinned base is the OLD
    // anchor: lazy references into the reclaimed range between the two
    // anchors would resolve neither from the log nor from the pin. Only a
    // bootstrap from the newer anchor is sound.
    RestartFromFetch();
    return Status::OK();
  }
  Result<std::vector<MeldDecision>> polled =
      server_->Poll(options_.replay_batch);
  if (!polled.ok()) {
    if (polled.status().IsTruncated()) {
      // The reclaimed prefix was pulled out from under our cursor. The
      // stale partial replay is unusable — only a prefix-complete meld
      // sequence is deterministic — so bootstrap again from the newer
      // anchor.
      RestartFromFetch();
      return Status::OK();
    }
    if (polled.status().IsUnavailable()) {
      // Storage hiccup outlasting the log's retries; the cursor has not
      // advanced, so the next Step re-polls.
      return Status::OK();
    }
    return polled.status();
  }
  report_.replayed_decisions += polled->size();
  if (server_->next_read_position() >= log_->Tail() &&
      server_->assembler().pending() == 0) {
    // Caught up to the tail as observed now; later appends are ordinary
    // tailing work. Open for business.
    server_->set_serve_state(HyderServer::ServeState::kServing);
    phase_ = Phase::kServing;
  }
  return Status::OK();
}

void CatchUpSession::RestartFromFetch() {
  report_.restarts++;
  server_.reset();
  anchor_first_block_ = 0;
  phase_ = Phase::kFetchingCheckpoint;
}

Result<std::unique_ptr<HyderServer>> CatchUpServer(SharedLog* log,
                                                    CatchUpOptions options) {
  CatchUpSession session(log, std::move(options));
  while (!session.done()) {
    HYDER_RETURN_IF_ERROR(session.Step());
  }
  return session.TakeServer();
}

}  // namespace hyder
