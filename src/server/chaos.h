#ifndef HYDER2_SERVER_CHAOS_H_
#define HYDER2_SERVER_CHAOS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/registry.h"
#include "log/fault_log.h"
#include "log/retrying_log.h"
#include "log/striped_log.h"
#include "server/catchup.h"
#include "server/truncation.h"

namespace hyder {

/// Knobs of one seeded chaos run. Every probability is evaluated from the
/// driver's own `Rng(seed)` (the log fault schedule and the stage-probe
/// schedule are derived sub-streams), so a seed fully determines the
/// fault schedule: kills, restarts, checkpoints, truncations, stage
/// crashes and stage stalls all replay identically.
struct ChaosOptions {
  uint64_t seed = 1;
  int num_servers = 3;
  /// Scheduler rounds: each round runs traffic, polls, and then rolls the
  /// chaos dice (checkpoint / truncate / kill / restart).
  uint64_t rounds = 120;
  size_t txns_per_round = 4;
  size_t ops_per_txn = 3;
  uint64_t keyspace = 256;
  /// Serving servers never drop below this (kills are skipped, not
  /// re-rolled, so the schedule stays a function of the seed).
  int min_live = 1;
  double kill_p = 0.08;             ///< Per round: kill a random server.
  double restart_p = 0.5;           ///< Per dead server per round.
  double checkpoint_p = 0.2;        ///< Per round: write a checkpoint.
  double truncate_p = 0.25;         ///< Per round: truncate at the anchor.
  /// Given a checkpoint attempt: arm a forced append outage partway
  /// through the write, leaving a partial checkpoint recovery must skip.
  double mid_checkpoint_crash_p = 0.2;
  /// Stage-probe schedule (per (server, incarnation, stage, seq); see
  /// PipelineConfig::stage_probe). Crashes surface out of Poll and the
  /// driver treats the server as dead; stalls sleep `stage_stall_nanos`.
  double stage_crash_p = 0.0008;
  double stage_stall_p = 0.003;
  uint64_t stage_stall_nanos = 20'000;
  /// CatchUpSession::Step calls per rebuilding server per round — the
  /// interleaving grain of catch-up against truncation and traffic.
  size_t catchup_steps_per_round = 2;
  StripedLogOptions log;
  /// Log-level fault schedule (FaultInjectingLog). `seed` here is ignored:
  /// the driver derives it from `ChaosOptions::seed`.
  FaultInjectionOptions log_faults;
  /// Base server options; per-server ids and stage probes are filled in by
  /// the driver. The pipeline configuration is shared by every server and
  /// every catch-up incarnation (§3.4).
  ServerOptions server;
};

/// Baseline configuration for seed `seed`: modest log-fault rates (no
/// sticky DataLoss — a decayed block below every future anchor would make
/// convergence impossible by construction), group meld + premeld on, and
/// small blocks so multi-round runs stay fast.
ChaosOptions MakeChaosOptions(uint64_t seed);

struct ChaosReport {
  uint64_t rounds = 0;
  uint64_t txns_submitted = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t busy_rejections = 0;     ///< Admission-control Busy responses.
  uint64_t catching_up_rejections = 0;  ///< Busy from kCatchingUp servers.
  uint64_t append_crashes = 0;      ///< Servers killed by forced outages.
  uint64_t stage_crashes = 0;       ///< Probe-injected stage failures.
  uint64_t stage_stalls = 0;
  uint64_t kills = 0;               ///< Scheduler kills.
  uint64_t restarts = 0;            ///< Catch-up sessions started.
  uint64_t rejoins = 0;             ///< Sessions completed (server rejoined).
  uint64_t catchup_restarts = 0;    ///< Re-bootstraps within sessions.
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;
  uint64_t mid_checkpoint_crashes = 0;
  uint64_t truncations = 0;
  uint64_t truncation_busy = 0;
  uint64_t blocks_reclaimed = 0;
  uint64_t final_low_water = 0;
  uint64_t final_tail = 0;
  uint64_t retained_bytes = 0;      ///< StripedLog payload bytes at the end.
  /// Retried-append copies the final servers' assemblers dropped.
  uint64_t duplicate_blocks = 0;
  bool converged = false;           ///< All servers byte-identical (§3.4).
  std::string diff;                 ///< First divergence, when !converged.
};

/// Deterministic kill/restart chaos harness over the full pipeline
/// (DESIGN.md "Log truncation & catch-up", chaos harness).
///
/// One driver owns a StripedLog wrapped in a FaultInjectingLog, wrapped in a
/// RetryingLog that every server, catch-up session and the
/// TruncationCoordinator use, and N replicas. Each round it drives random
/// transactions, rolls every serving server forward, and then — from one seeded
/// stream — may write a checkpoint (sometimes crashing partway through it),
/// truncate at the latest durable anchor, kill a server, or step the catch-up
/// sessions of dead ones (which is how truncation races replay). After the
/// configured rounds it revives everything, drains the pipeline, runs one final
/// checkpoint + truncation, and checks that every server converged to a
/// physically identical state (§3.4) over a log whose reclaimed prefix is
/// actually gone.
///
/// `Run()` returns the report; an `Internal` error means an invariant the
/// harness asserts (a catching-up server accepting work, the epilogue
/// failing to quiesce) was violated — a bug, not chaos.
class ChaosDriver {
 public:
  explicit ChaosDriver(ChaosOptions options);

  /// Runs the whole schedule. Call once.
  Result<ChaosReport> Run();

  /// The fault-injecting log (tests add extra assertions against it).
  FaultInjectingLog& log() { return log_; }
  StripedLog& base_log() { return base_log_; }

 private:
  struct Replica {
    int id = 0;
    /// Bumped on every restart so a fresh incarnation draws a fresh stage
    /// schedule — a crash probe at (stage, seq) must not refire forever.
    uint64_t incarnation = 0;
    std::unique_ptr<HyderServer> server;      ///< Serving, when set.
    std::unique_ptr<CatchUpSession> session;  ///< Rebuilding, when set.
  };

  /// Server options for `replica`'s next incarnation. `benign` drops the
  /// stage crash/stall probes (the epilogue must terminate).
  ServerOptions OptionsFor(const Replica& replica, bool benign);
  CatchUpOptions CatchUpOptionsFor(const Replica& replica, bool benign);
  std::vector<HyderServer*> ServingServers();
  Status RunTraffic();
  /// Polls every serving server once; probe/storage failures demote the
  /// server to dead.
  void PollServing();
  void MaybeCheckpoint();
  void MaybeTruncate();
  void MaybeKill();
  void StepCatchUps(bool benign);
  /// Revive everything, drain, final checkpoint + truncation, convergence.
  Status Epilogue();

  const ChaosOptions options_;
  Rng rng_;
  StripedLog base_log_;
  FaultInjectingLog log_;
  RetryingLog retrying_log_;
  TruncationCoordinator truncator_;
  std::vector<Replica> replicas_;
  /// Set when the epilogue begins: disarms the stage probes of surviving
  /// servers (read from the probe lambdas on the driver thread).
  bool benign_ = false;
  std::optional<CheckpointInfo> last_checkpoint_;
  ChaosReport report_;
  /// "chaos.*" in the global registry. The driver is single-threaded;
  /// declared last so it unregisters first.
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_SERVER_CHAOS_H_
