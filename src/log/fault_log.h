#ifndef HYDER2_LOG_FAULT_LOG_H_
#define HYDER2_LOG_FAULT_LOG_H_

#include <unordered_set>

#include "common/random.h"
#include "common/registry.h"
#include "common/thread_annotations.h"
#include "log/shared_log.h"

namespace hyder {

/// Fault taxonomy knobs. Probabilities are per-operation and drawn from one
/// deterministic, explicitly seeded `Rng`, so a (seed, call-sequence) pair
/// always injects the same faults — the recovery harness replays identical
/// fault schedules across runs and asserts the cluster still converges.
struct FaultInjectionOptions {
  uint64_t seed = 1;

  /// Append fails with `Unavailable`; nothing lands in the log.
  double append_fail_p = 0;
  /// Append lands in the log but the acknowledgement is "lost": the caller
  /// sees `Unavailable` and will typically retry, landing a second copy —
  /// the duplicate-append ambiguity every shared-log client must survive
  /// (dedup at meld time via the intention's (server id, local seq)).
  double append_duplicate_p = 0;
  /// A torn write: a strict prefix of the block lands, `Unavailable` is
  /// reported. The prefix can never decode as a complete block (its header
  /// advertises more payload bytes than the prefix holds), so tailing
  /// servers skip it deterministically.
  double append_torn_p = 0;
  /// Read fails with `Unavailable` (transient; a retry may succeed).
  double read_fail_p = 0;
  /// The position's stored bytes decay permanently: this and every later
  /// read of the position fails with `DataLoss` (sticky, as a real medium
  /// error would be).
  double read_dataloss_p = 0;
};

/// Deterministic fault-injecting decorator over any `SharedLog` (§2: the
/// log is the database's only persistent representation, so log faults are
/// *the* fault model that matters). Wrap the real log, point servers at the
/// wrapper, and every append/read site in the system gets exercised against
/// transient unavailability, lost acks, torn writes and decayed bytes —
/// without touching the underlying implementation. Transient faults reach
/// the caller; compose a RetryingLog over this wrapper to retry them.
class FaultInjectingLog : public SharedLog {
 public:
  /// `base` must outlive this wrapper; the wrapper takes no ownership.
  FaultInjectingLog(SharedLog* base, FaultInjectionOptions options);

  Result<uint64_t> Append(std::string block) EXCLUDES(mu_) override;
  Result<std::string> Read(uint64_t position) EXCLUDES(mu_) override;
  uint64_t Tail() const override { return base_->Tail(); }
  size_t block_size() const override { return base_->block_size(); }
  void RecordRetry() EXCLUDES(mu_) override;
  /// Forwarded to the base log; counted (truncations/low_water) in this
  /// wrapper's stats too so chaos runs export the mark via "log.fault.*".
  Status Truncate(uint64_t low_water_position) EXCLUDES(mu_) override;
  uint64_t LowWaterMark() const override { return base_->LowWaterMark(); }
  LogStats stats() const EXCLUDES(mu_) override;

  /// Forces `position` into the decayed set: every subsequent read fails
  /// with `DataLoss`. For tests that need a corrupt block at an exact spot.
  void CorruptPosition(uint64_t position) EXCLUDES(mu_);

  /// Arms a deterministic outage: after `after` more successful appends,
  /// the next `n` appends fail with a non-transient `Internal` error (no
  /// retry can save them) and nothing lands in the base log. This is the
  /// mid-checkpoint-crash lever: arming with `after > 0` before a
  /// checkpoint write lands a strict prefix of its blocks and then kills
  /// the writer, leaving a partial checkpoint that recovery must skip.
  void FailNextAppends(uint64_t n, uint64_t after = 0) EXCLUDES(mu_);

  /// Per-fault-kind injection counts.
  struct FaultCounts {
    uint64_t append_failures = 0;
    uint64_t duplicate_appends = 0;
    uint64_t torn_appends = 0;
    uint64_t read_failures = 0;
    uint64_t dataloss_reads = 0;
  };
  FaultCounts fault_counts() const EXCLUDES(mu_);

 private:
  SharedLog* const base_;
  const FaultInjectionOptions options_;
  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  uint64_t forced_append_failures_ GUARDED_BY(mu_) = 0;
  uint64_t forced_append_skip_ GUARDED_BY(mu_) = 0;
  std::unordered_set<uint64_t> decayed_ GUARDED_BY(mu_);
  LogStats stats_ GUARDED_BY(mu_);
  FaultCounts counts_ GUARDED_BY(mu_);
  /// "log.fault.*" (LogStats + per-fault-kind injection counts) in the
  /// global MetricsRegistry (declared last: the provider reads the guarded
  /// counters and must unregister first).
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_LOG_FAULT_LOG_H_
