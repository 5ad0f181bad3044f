#ifndef HYDER2_SERVER_TRUNCATION_H_
#define HYDER2_SERVER_TRUNCATION_H_

#include <vector>

#include "common/registry.h"
#include "server/checkpoint.h"

namespace hyder {

/// Outcome of one checkpoint-anchored truncation round.
struct TruncationReport {
  uint64_t checkpoint_state_seq = 0;  ///< The anchoring checkpoint's state.
  uint64_t low_water = 0;             ///< New first readable log position.
  uint64_t blocks_reclaimed = 0;      ///< Log blocks discarded this round.
  uint64_t states_retired = 0;  ///< Retained states retired, summed over servers.
  /// Resolver directory entries below the new mark, summed over servers.
  uint64_t directory_entries_dropped = 0;
};

/// Cluster-wide checkpoint-anchored log truncation (DESIGN.md "Log
/// truncation & catch-up").
///
/// The protocol: a durable checkpoint of state S is the anchor; everything
/// before the checkpoint's own first block becomes reclaimable *after*
/// every server has (1) rolled forward to the log tail (full quiescence —
/// an in-flight intention with a pre-S snapshot could otherwise need a
/// reclaimed position mid-meld) and (2) pinned S as its resolution floor
/// (lazy references below S resolve from the pinned map once the log
/// prefix is gone; see ServerResolver::ReplacePinnedBase for the soundness
/// argument). Only then does the coordinator advance the log's low-water
/// mark — to `min(first_block, resume_position)`, so the checkpoint's own
/// blocks and every position a bootstrapping server replays from stay
/// readable for future catch-up — and then drop, on every server, the
/// resolver directory entries that lie wholly below the new mark.
///
/// Failure atomicity: pinning is purely additive (a pin without a
/// truncation changes no behaviour), so a crash between any two steps
/// leaves a correct cluster; re-running the round is idempotent.
class TruncationCoordinator {
 public:
  /// `log` must outlive the coordinator. Registers "truncation.*" metrics.
  explicit TruncationCoordinator(SharedLog* log);

  /// Runs one round anchored at `ckpt` over `servers` (every server sharing
  /// the log MUST be listed — a missing one would wake up unable to resolve
  /// below S). Fails with `Busy` unless every server is fully quiescent:
  /// polled to the tail, no partial assemblies, no undecided local
  /// transactions. Returns the report; a no-op round (mark already at or
  /// past the anchor) reports zero blocks reclaimed.
  Result<TruncationReport> TruncateToCheckpoint(
      const CheckpointInfo& ckpt, const std::vector<HyderServer*>& servers);

  uint64_t rounds() const { return rounds_; }
  uint64_t failures() const { return failures_; }
  const TruncationReport& last_report() const { return last_; }

 private:
  SharedLog* const log_;
  uint64_t rounds_ = 0;
  uint64_t failures_ = 0;
  TruncationReport last_;
  /// "truncation.*" in the global MetricsRegistry. Snapshots run on the
  /// coordinator's thread (the class is single-threaded, like the servers
  /// it coordinates). Declared last: unregisters first.
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_SERVER_TRUNCATION_H_
