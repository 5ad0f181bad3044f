#include "server/truncation.h"

#include <algorithm>

namespace hyder {

TruncationCoordinator::TruncationCoordinator(SharedLog* log) : log_(log) {
  metrics_ = MetricsRegistry::Global().RegisterProvider(
      "truncation", [this](const MetricsRegistry::Emit& emit) {
        emit("rounds", double(rounds_));
        emit("failures", double(failures_));
        emit("low_water", double(log_->LowWaterMark()));
        emit("last_blocks_reclaimed", double(last_.blocks_reclaimed));
        emit("last_states_retired", double(last_.states_retired));
        emit("last_directory_entries_dropped",
             double(last_.directory_entries_dropped));
      });
}

Result<TruncationReport> TruncationCoordinator::TruncateToCheckpoint(
    const CheckpointInfo& ckpt, const std::vector<HyderServer*>& servers) {
  TruncationReport report;
  report.checkpoint_state_seq = ckpt.state_seq;
  report.low_water = log_->LowWaterMark();
  if (ckpt.first_block == 0) {
    failures_++;
    return Status::InvalidArgument(
        "checkpoint carries no first block position; not a durable anchor");
  }
  // Cut at the anchor's replay start, not its first block. The two are
  // equal for a cleanly written checkpoint (the writer is at the tail), but
  // a lost-ack retry of the checkpoint's first append can land a copy one
  // position below the acked one: first_block then names the acked copy
  // while resume_position still names the true tail at write time. Every
  // position >= resume_position must stay readable or a bootstrapping
  // server's very first replay read comes back Truncated forever.
  const uint64_t cut = std::min(ckpt.first_block, ckpt.resume_position);
  if (cut <= log_->LowWaterMark()) {
    // Monotone no-op: an older (or repeated) anchor reclaims nothing.
    last_ = report;
    return report;
  }
  // Full quiescence, checked across ALL servers before ANY mutation: an
  // in-flight intention whose snapshot predates S could dereference a
  // pre-S lazy reference mid-meld; with the prefix reclaimed and no pin
  // yet installed that resolve would fail, and — worse — fail on some
  // servers and not others. Quiescence makes the cut point identical
  // everywhere, which is what keeps melding deterministic (§3.4) across a
  // truncation.
  const uint64_t tail = log_->Tail();
  for (HyderServer* server : servers) {
    if (server->next_read_position() < tail) {
      failures_++;
      return Status::Busy("server " +
                          std::to_string(server->options().server_id) +
                          " has not rolled forward to the tail");
    }
    if (server->assembler().pending() != 0) {
      failures_++;
      return Status::Busy("server " +
                          std::to_string(server->options().server_id) +
                          " holds partially assembled intentions");
    }
    if (server->inflight() != 0) {
      failures_++;
      return Status::Busy("server " +
                          std::to_string(server->options().server_id) +
                          " has undecided local transactions");
    }
  }
  // Pin S everywhere BEFORE touching the log. Pins are additive, so a
  // crash after k of n pins leaves a fully functional cluster and the
  // round can simply be re-run.
  uint64_t states_retired = 0;
  for (HyderServer* server : servers) {
    const uint64_t oldest = server->pipeline().states().OldestRetained();
    HYDER_RETURN_IF_ERROR(server->PinStateForTruncation(ckpt.state_seq));
    states_retired += ckpt.state_seq > oldest ? ckpt.state_seq - oldest : 0;
  }
  // Advance the mark to the anchor's replay start — the checkpoint blocks
  // (all at or above it) stay readable so a lagging server can still
  // bootstrap from it.
  const uint64_t before = log_->LowWaterMark();
  Status truncated = log_->Truncate(cut);
  if (!truncated.ok()) {
    failures_++;
    return truncated;
  }
  report.low_water = log_->LowWaterMark();
  report.blocks_reclaimed = report.low_water - before;
  report.states_retired = states_retired;
  // Only now can a directory entry below the mark answer nothing but
  // Truncated; dropping it earlier would change behaviour on a pin without
  // a truncation.
  for (HyderServer* server : servers) {
    report.directory_entries_dropped +=
        server->resolver().DropDirectoryBelow(report.low_water);
  }
  rounds_++;
  last_ = report;
  return report;
}

}  // namespace hyder
