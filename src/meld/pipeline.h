#ifndef HYDER2_MELD_PIPELINE_H_
#define HYDER2_MELD_PIPELINE_H_

#include <bitset>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/topk_sketch.h"
#include "meld/group_meld.h"
#include "meld/meld.h"
#include "meld/premeld.h"
#include "meld/state_table.h"
#include "txn/codec.h"
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

/// The meld engine (Fig. 2): the decode, premeld and group/final-meld
/// stages, and the state table they share.
///
/// Each stage is a deterministic function of (intention, state) pairs chosen
/// by index arithmetic (§3.4), so any thread may run it and the result is
/// bit-identical however the stages are scheduled. `Process` runs them as
/// ordinary calls in dependency order (the engine `HyderServer::Poll`
/// drives); `ThreadedPipeline` runs decode and premeld on worker threads and
/// the meld stages on its caller. Each stage's CPU time and tree-node work
/// is recorded per stage, which is what the evaluation's figures plot and
/// what the calibrated throughput model consumes (see DESIGN.md,
/// "Substitutions").
///
/// Threading contract: `Decode` may run on any thread. `Premeld` may run on
/// t threads at once provided each intention v runs on the thread owning
/// `v mod t` and each thread runs its intentions in log order; it writes
/// only the caller's stats and the allocator of `v mod t`. `Meld`, `Flush`
/// and the remaining members are confined to one thread.
class SequentialPipeline {
 public:
  /// `eph_registrar` is invoked for every ephemeral node created by any
  /// stage, feeding the server's registry (may be null in tests that keep
  /// everything reachable).
  SequentialPipeline(const PipelineConfig& config, DatabaseState initial,
                     NodeResolver* resolver,
                     std::function<void(const NodePtr&)> eph_registrar);

  /// Feeds the next intention in log order (seq must be consecutive):
  /// `Premeld` into this engine's stats, then `Meld`.
  Result<std::vector<MeldDecision>> Process(IntentionPtr intent);

  /// Decode stage: fires the kDecode probe and deserializes `raw`, booking
  /// its CPU time and node count in `stats->deserialize`.
  Result<IntentionPtr> Decode(const IntentionAssembler::Completed& raw,
                              PipelineStats* stats) const;

  /// Premeld stage (Algorithm 1) on the allocator of `seq mod t`, blocking
  /// until its input state is published. Returns the intention final meld
  /// should process; books premeld work and the premeld knobs' config echo
  /// in `stats` (at t == 0 it only stamps the echo).
  Result<IntentionPtr> Premeld(IntentionPtr intent, PipelineStats* stats);

  /// Group and final meld stages for the next intention in log order (seq
  /// must be consecutive). Returns the decisions completed by this step —
  /// none while a group pair's first member is buffered, possibly two when
  /// a pair flushes.
  Result<std::vector<MeldDecision>> Meld(IntentionPtr intent);

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
  /// used to express conflict zones in blocks (Fig. 12). Only the last
  /// `state_retention` sequences are kept: an older `seq` counts from the
  /// oldest kept one, so a zone reaching past the window is undercounted.
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
  Status CheckNextSeq(uint64_t seq) const;
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
  /// Cumulative block counts of the last `state_retention` sequences,
  /// oldest first; the last entry is sequence `next_seq_ - 1`'s.
  std::deque<uint64_t> block_prefix_;
  uint64_t next_seq_ = 0;  ///< The sequence `Meld` expects next.
  uint64_t published_seq_ = 0;
  /// Backstop against the duplicate-append ambiguity: the assembler filters
  /// retried copies before they reach the pipeline, so a transaction id
  /// arriving twice here means a layering bug, or a copy of an earlier
  /// intention that no appender writes and the assembler does not drop,
  /// either of which would decide (and could commit) one transaction
  /// twice — fail loudly instead. A retried copy lands right behind its
  /// original, so the check keeps, per origin (`TxnOrigin`, the issuing
  /// server), only the ids fed among the `kFedTxnWindow` below its highest:
  /// memory stays O(origins) however long the log. Ids are not appended in
  /// id order (a transaction begun earlier may commit later), so an id
  /// below the window passes unchecked.
  static constexpr uint64_t kFedTxnWindow = 4096;
  struct FedTxns {
    uint64_t mark = 0;  ///< Highest id fed from this origin.
    std::bitset<kFedTxnWindow> seen;  ///< Bit id % window, ids near mark.
  };
  /// Records `txn_id` as fed; Internal if it was fed before.
  Status NoteFed(uint64_t txn_id);
  std::unordered_map<uint64_t, FedTxns> fed_txns_;
};

}  // namespace hyder

#endif  // HYDER2_MELD_PIPELINE_H_
