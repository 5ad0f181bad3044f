#ifndef HYDER2_MELD_PIPELINE_H_
#define HYDER2_MELD_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/topk_sketch.h"
#include "meld/group_meld.h"
#include "meld/meld.h"
#include "meld/premeld.h"
#include "meld/state_table.h"
#include "txn/intention.h"

namespace hyder {

/// Owner-tag bit for ephemeral nodes created by the final meld stage. Must
/// differ from the intention's own tag (its seq): final meld's tombstone
/// application restructures the melded tree, and intention nodes themselves
/// remain live in the resolver as snapshot content for later transactions —
/// they must be cloned, never mutated in place.
constexpr uint64_t kFinalTagBit = 1ull << 59;

/// Pipeline stage boundaries instrumented with chaos probes (see
/// server/chaos.h). Values are stable: probe schedules hash them.
enum class PipelineStage {
  kDecode = 0,     ///< Before intention deserialization (server tail loop).
  kPremeld = 1,    ///< Before the premeld stage runs an intention.
  kHandoff = 2,    ///< Premeld -> group/final-meld hand-off boundary.
  kGroupMeld = 3,  ///< Before a group pair combines.
  kFinalMeld = 4,  ///< Before final meld applies an intention.
};

/// Fault probe called at each stage boundary with the intention sequence
/// about to cross it. Return OK to proceed; stall by sleeping before
/// returning OK; return non-OK to inject a failure, which surfaces out of
/// `Poll` and must be treated as a server crash (the pipeline may hold a
/// partially fed intention — discard the server, do not re-Poll it).
///
/// Determinism (§3.4): the probe MUST be a pure function of (stage, seq) —
/// derive decisions from something like Mix64(seed ^ stage ^ seq), never
/// from call counts, wall clock or thread identity, so that a schedule
/// replays identically across runs and engines.
using StageProbe = std::function<Status(PipelineStage, uint64_t seq)>;

/// Configuration of the meld pipeline (Fig. 2).
struct PipelineConfig {
  /// Number of premeld threads `t`; 0 disables premeld. Each intention v is
  /// handled by thread v mod t and melds against state v - t*d - 1 (§3.4).
  int premeld_threads = 0;
  /// Premeld distance `d` (the paper's best setting is 5 threads, d=10).
  int premeld_distance = 10;
  /// Enables group meld: adjacent pairs (odd, even) combine (§4).
  bool group_meld = false;
  /// States retained for premeld and executor snapshots.
  uint64_t state_retention = 4096;
  /// Capacity of each inter-stage hand-off structure in the threaded
  /// pipeline (per-worker input queues and the premeld → final-meld ring).
  /// Bounds in-flight intentions per stage — this is the back-pressure that
  /// ultimately throttles the executors (§5.2). Larger values amortize
  /// wakeups on oversubscribed hosts at the cost of memory and decision
  /// latency. Ignored by the sequential engine.
  size_t stage_queue_capacity = 64;
  /// Ablation only (bench/ablation_graft_fastpath): turn off the meld
  /// operator's subtree-graft fast path.
  bool disable_graft_fastpath = false;
  /// Chaos probe fired at every stage boundary; null (the default) costs
  /// one branch per boundary. Both engines call it at the same boundaries.
  StageProbe stage_probe;
};

/// Commit/abort decision for one transaction, in log order.
struct MeldDecision {
  uint64_t seq = 0;
  uint64_t txn_id = 0;
  bool committed = false;
  /// Typed abort provenance (common/abort_info.h); `!abort.aborted()` on
  /// commit. The free-form reason string of earlier revisions is
  /// reconstructed lazily via `reason()`.
  AbortInfo abort;

  std::string reason() const { return abort.ToString(); }
};

/// Decision-shaped provenance for admission-control rejections: `Submit`
/// returning Busy never reaches the pipeline, so the open-loop driver
/// stamps rejected arrivals with this to keep the per-cause accounting
/// complete. Lives in the meld layer so every AbortCause enumerator has
/// exactly one producing subsystem (the hyder-check abort-provenance rule).
AbortInfo MakeAdmissionRejectAbort();

/// Deterministic single-threaded driver of the meld pipeline.
///
/// Runs the premeld → group-meld → final-meld stages as ordinary calls in
/// dependency order, which produces *bit-identical states and decisions* to
/// the multithreaded pipeline (that is the paper's determinism requirement,
/// §3.4 — the stages are deterministic functions of (intention, state)
/// pairs chosen by index arithmetic, so thread interleaving cannot matter).
/// Each stage's CPU time and tree-node work is recorded per stage, which is
/// what the evaluation's figures plot and what the calibrated throughput
/// model consumes (see DESIGN.md, "Substitutions"). It is the engine
/// `HyderServer::Poll` runs.
class SequentialPipeline {
 public:
  /// `eph_registrar` is invoked for every ephemeral node created by any
  /// stage, feeding the server's registry (may be null in tests that keep
  /// everything reachable).
  SequentialPipeline(const PipelineConfig& config, DatabaseState initial,
                     NodeResolver* resolver,
                     std::function<void(const NodePtr&)> eph_registrar);

  /// Feeds the next intention in log order (seq must be consecutive).
  /// Returns the decisions completed by this step — none while a group
  /// pair's first member is buffered, possibly two when a pair flushes.
  Result<std::vector<MeldDecision>> Process(IntentionPtr intent);

  /// Flushes a buffered unpaired intention (end of stream).
  Result<std::vector<MeldDecision>> Flush();

  /// True while a group pair's first member is buffered undecided. A
  /// checkpoint cannot be cut in this window: the captured state seq
  /// precedes the buffered intention but resume_position lies past its log
  /// blocks, so a bootstrapping server would never meld it and every meld
  /// sequence it assigns afterwards would be shifted — breaking §3.4
  /// determinism.
  bool has_pending_group() const { return pending_group_ != nullptr; }

  StateTable& states() { return states_; }
  const PipelineStats& stats() const { return stats_; }
  PipelineStats* mutable_stats() { return &stats_; }

  /// Contention heatmap: top-K sketch over conflicting user keys, fed by
  /// every abort decision that names one. Owned by the meld thread — read
  /// it from the thread driving the pipeline (the server's metrics provider
  /// does; see the TopKSketch concurrency contract).
  const TopKSketch& contention() const { return contention_; }

  /// Cumulative serialized blocks up to (and including) sequence `seq`;
  /// used to express conflict zones in blocks (Fig. 12).
  uint64_t BlocksUpTo(uint64_t seq) const;

  /// Ephemeral id-space snapshot, in stage order [final, group, premeld...].
  /// Ephemeral version ids are part of the physical state: later intentions'
  /// snapshot versions (ssv) name them, and the meld operator's graft fast
  /// path compares them by value. A checkpoint therefore persists these
  /// counters, and bootstrap restores them, so a restored server continues
  /// minting exactly the ids a full log replay would produce.
  std::vector<uint64_t> EphemeralCounters() const;

  /// Restores counters captured by EphemeralCounters() on a quiescent
  /// pipeline of the same configuration. Extra or missing trailing entries
  /// are tolerated (configuration may differ across incarnations); entries
  /// present on both sides are applied positionally.
  void RestoreEphemeralCounters(const std::vector<uint64_t>& counters);

 private:
  Result<std::vector<MeldDecision>> AfterPremeld(IntentionPtr intent);
  Result<std::vector<MeldDecision>> FinalMeld(IntentionPtr intent);
  void PublishUpTo(uint64_t seq, const Ref& root);
  /// Books one abort decision into the forensic surfaces: per-cause /
  /// per-stage stats, the contention sketch, and the `abort` trace instant.
  void NoteAbort(const MeldDecision& d);

  const PipelineConfig config_;
  StateTable states_;
  NodeResolver* resolver_;
  PipelineStats stats_;
  TopKSketch contention_{64};
  EphemeralAllocator fm_alloc_;
  EphemeralAllocator gm_alloc_;
  std::vector<std::unique_ptr<EphemeralAllocator>> pm_allocs_;
  IntentionPtr pending_group_;  ///< Odd member awaiting its pair.
  std::vector<uint64_t> block_prefix_;  ///< block_prefix_[seq] = cumulative.
  uint64_t published_seq_ = 0;
  /// Backstop against the duplicate-append ambiguity: the assembler filters
  /// retried copies before they reach the pipeline, so a transaction id
  /// arriving twice here means a layering bug that would decide (and could
  /// commit) one transaction twice — fail loudly instead.
  std::unordered_set<uint64_t> fed_txns_;
};

}  // namespace hyder

#endif  // HYDER2_MELD_PIPELINE_H_
