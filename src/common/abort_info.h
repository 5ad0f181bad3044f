#ifndef HYDER2_COMMON_ABORT_INFO_H_
#define HYDER2_COMMON_ABORT_INFO_H_

// Typed abort provenance.
//
// An abort used to be a free-form string ("write-write on key 7") that
// nothing could aggregate; the transaction-repair and adaptive-group-meld
// work both need to know *why* each meld aborted and *which* keys were hot.
// `AbortInfo` is the structured replacement: a small POD built allocation-
// free on the abort path, carried through `MeldResult`, `Intention` (for
// premeld kills) and `MeldDecision`, and aggregated into `PipelineStats`
// per-cause / per-stage counters, the contention top-K sketch, and an
// `abort` trace instant. The human-readable string is reconstructed lazily
// by `ToString()` — logs and tests only.
//
// Determinism (§3.4): everything in here is derived from intention contents
// and meld decisions, never from log positions or wire encoding, so the
// provenance of a decision is bit-identical across wire formats for a given
// pipeline configuration (pipeline_equivalence_test pins this).

#include <cstdint>
#include <string>

namespace hyder {

/// Why a transaction aborted. `kAbort*` enumerators double as the stable
/// metric names (see AbortCauseName); the hyder-check `abort-provenance`
/// rule pins that every enumerator is produced somewhere in src/meld/.
enum class AbortCause : uint8_t {
  kNone = 0,                  ///< Not aborted.
  kAbortWriteWrite = 1,       ///< Write (or delete) vs concurrent write/delete.
  kAbortReadWrite = 2,        ///< Read dependency vs concurrent write.
  kAbortPhantom = 3,          ///< Structural/phantom: subtree changed under a
                              ///< scan or serializable read range.
  kAbortGraft = 4,            ///< Graft failure: the subtree this intention
                              ///< grafted onto was concurrently deleted.
  kAbortGroupFateSharing = 5, ///< Member of a multi-transaction group whose
                              ///< combined intention aborted (§4).
  kAbortPremeldKill = 6,      ///< Premeld (Algorithm 1) proved a conflict
                              ///< ahead of final meld.
  kAbortBusy = 7,             ///< Admission control: in-flight limit reached
                              ///< (open-loop load shedding).
};
inline constexpr int kAbortCauseCount = 8;

/// Which pipeline stage made the abort decision.
enum class AbortStage : uint8_t {
  kNone = 0,
  kPremeld = 1,
  kGroupMeld = 2,
  kFinalMeld = 3,
  kAdmission = 4,  ///< Rejected before ever reaching the log.
};
inline constexpr int kAbortStageCount = 5;

/// What AbortInfo::key identifies, if anything.
enum class AbortKeyKind : uint8_t {
  kNone = 0,
  kUserKey = 1,  ///< A user key.
};

/// Structured provenance of one abort. Plain data, no allocation: built on
/// the hot abort path, stringified lazily.
struct AbortInfo {
  /// Decision-granularity bucket: what killed this particular transaction.
  AbortCause cause = AbortCause::kNone;
  /// Underlying conflict class. Equal to `cause` for direct conflicts; for
  /// indirect causes (premeld kill, group fate-sharing) it preserves the
  /// conflict type that started the chain.
  AbortCause conflict = AbortCause::kNone;
  AbortStage stage = AbortStage::kNone;
  AbortKeyKind key_kind = AbortKeyKind::kNone;
  /// Conflicting user key, per `key_kind`.
  uint64_t key = 0;
  /// Upper bound of the conflict zone the meld ran against: the newest
  /// intention sequence that could have been the conflicting writer. Exact
  /// writer attribution would need per-node writer seqs the tree does not
  /// store; the zone bound is deterministic and sufficient for repair to
  /// know how far to re-read.
  uint64_t blamed_seq = 0;

  bool aborted() const { return cause != AbortCause::kNone; }

  /// Lazy human-readable rendering, e.g.
  /// "premeld kill: write-write on key 7 (stage premeld, zone<=12)".
  std::string ToString() const;

  friend bool operator==(const AbortInfo& a, const AbortInfo& b) {
    return a.cause == b.cause && a.conflict == b.conflict &&
           a.stage == b.stage && a.key_kind == b.key_kind &&
           a.key == b.key && a.blamed_seq == b.blamed_seq;
  }
  friend bool operator!=(const AbortInfo& a, const AbortInfo& b) {
    return !(a == b);
  }
};

/// Stable snake_case identifier used in metric names and trace args
/// ("write_write", "premeld_kill", ...). Never nullptr.
const char* AbortCauseName(AbortCause cause);
/// Human label used by ToString ("write-write", "premeld kill", ...).
const char* AbortCauseLabel(AbortCause cause);
/// Stable snake_case stage name ("premeld", "final_meld", ...).
const char* AbortStageName(AbortStage stage);

}  // namespace hyder

#endif  // HYDER2_COMMON_ABORT_INFO_H_
