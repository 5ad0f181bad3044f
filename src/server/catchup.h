#ifndef HYDER2_SERVER_CATCHUP_H_
#define HYDER2_SERVER_CATCHUP_H_

#include <memory>

#include "common/registry.h"
#include "server/checkpoint.h"

namespace hyder {

/// Configuration for bringing a lagging (or freshly joining) server up to
/// the cluster tail.
struct CatchUpOptions {
  /// Options for the rebuilt server. Must carry the cluster's pipeline
  /// configuration (§3.4 — meld is deterministic only if every server runs
  /// the same pipeline).
  ServerOptions server;
  /// Intentions melded per `Step()` while replaying — the granularity at
  /// which a chaos driver can interleave truncation against the replay.
  size_t replay_batch = 256;
  /// Fetch rounds (scan + bootstrap attempts) before giving up with
  /// `Unavailable`. 0 = unbounded, for drivers that own their schedule.
  uint64_t max_fetch_rounds = 0;
};

/// Resumable lagging-server catch-up (DESIGN.md "Log truncation &
/// catch-up"): bootstrap from the latest durable checkpoint, replay the log
/// tail through the meld pipeline, and rejoin at the cluster tail with a
/// state *physically identical* (§3.4) to the servers that never left.
///
/// The session is an explicit state machine driven by `Step()` rather than
/// a blocking call, so tests and the chaos harness can interleave log
/// truncation, crashes and concurrent traffic between steps:
///
///   kFetchingCheckpoint --scan+bootstrap ok--> kReplaying --at tail--> kServing
///        ^    |                                    |
///        |    +-- fetch failed: retry next Step ---+-- replay hit Truncated
///        +------------- (re-scan for a newer anchor; restarts++) -------+
///
/// Graceful degradation: from the moment the server object exists it
/// reports `ServeState::kCatchingUp` and refuses new transactions with
/// `Busy`; only when its read cursor reaches the observed tail (with no
/// partial assemblies) does it flip to `kServing`.
///
/// The kReplaying -> kFetchingCheckpoint edge is the truncation race: the
/// cluster may anchor a *newer* checkpoint and reclaim the prefix this
/// session was replaying. The replay read then returns `Truncated` (typed,
/// never garbage), and the session discards the stale server and re-scans —
/// the newer anchor is by construction at or past the new low-water mark,
/// so the race converges.
class CatchUpSession {
 public:
  enum class Phase { kFetchingCheckpoint, kReplaying, kServing };

  /// `log` must outlive the session. Registers "catchup.*" metrics.
  CatchUpSession(SharedLog* log, CatchUpOptions options);

  /// Runs one bounded unit of work (one fetch round or one replay batch).
  /// Returns OK while progressing, including after a recoverable setback,
  /// which the next `Step` retries; a non-OK status is terminal for the
  /// session.
  [[nodiscard]] Status Step();

  bool done() const { return phase_ == Phase::kServing; }
  Phase phase() const { return phase_; }

  /// The server being rebuilt; null during kFetchingCheckpoint. Observable
  /// mid-flight (e.g. to assert it refuses transactions while replaying).
  HyderServer* server() { return server_.get(); }

  /// Hands the caught-up server to the caller. Only meaningful once
  /// `done()`; the session is spent afterwards.
  std::unique_ptr<HyderServer> TakeServer() { return std::move(server_); }

  struct Report {
    uint64_t checkpoint_state_seq = 0;  ///< Anchor of the last bootstrap.
    uint64_t fetch_rounds = 0;          ///< Scan+bootstrap attempts.
    uint64_t replayed_decisions = 0;    ///< Meld decisions during replay.
    uint64_t restarts = 0;  ///< Re-bootstraps (truncation raced replay).
  };
  const Report& report() const { return report_; }

 private:
  Status StepFetch();
  Status StepReplay();
  /// Discards the half-built server and returns to checkpoint fetch (the
  /// truncation-raced-replay edge).
  void RestartFromFetch();

  SharedLog* const log_;
  const CatchUpOptions options_;
  Phase phase_ = Phase::kFetchingCheckpoint;
  std::unique_ptr<HyderServer> server_;
  /// First block of the anchoring checkpoint (the log's low-water mark at
  /// bootstrap when starting fresh). If the cluster's mark ever passes it,
  /// a newer anchor truncated mid-replay and this bootstrap's pinned base
  /// no longer covers every reclaimed position — the session must restart
  /// from the newer anchor even if its own reads never hit `Truncated`.
  uint64_t anchor_first_block_ = 0;
  Report report_;
  /// "catchup.*" in the global registry; single-threaded like the session.
  /// Declared last: unregisters first.
  ProviderHandle metrics_;
};

/// Blocking convenience: steps a session to completion and returns the
/// caught-up server, `kServing` and polled to the tail observed at the end.
/// Bound the wait via `options.max_fetch_rounds` if the log may hold no
/// usable checkpoint.
Result<std::unique_ptr<HyderServer>> CatchUpServer(SharedLog* log,
                                                   CatchUpOptions options);

}  // namespace hyder

#endif  // HYDER2_SERVER_CATCHUP_H_
