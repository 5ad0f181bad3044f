#ifndef HYDER2_COMMON_METRICS_H_
#define HYDER2_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/abort_info.h"

namespace hyder {

/// Snapshot-time field emitter (see common/registry.h): stats structs
/// publish every field through `EmitTo(prefix, emit)`, the one audited
/// list per struct that the registry's exporters and `ToString()` (one
/// `name=value` per field) both read; the field-count guards in
/// metrics.cc keep it complete.
using MetricEmit = std::function<void(const std::string&, double)>;

/// Work counters for one meld execution (one call of the meld operator).
///
/// These are the paper's evaluation currency: Figures 11–13, 17, 19, 22 and
/// 24 are all plots of "tree nodes visited" and "ephemeral nodes created"
/// per transaction at different pipeline stages. The counters are exact and
/// deterministic, so the reproduction can compare shapes precisely.
struct MeldWork {
  uint64_t nodes_visited = 0;      ///< Tree nodes examined by the traversal.
  uint64_t ephemeral_created = 0;  ///< Ephemeral nodes generated.
  uint64_t grafts = 0;             ///< Fast-path subtree grafts taken.
  uint64_t conflict_checks = 0;    ///< Per-node conflict evaluations.
  uint64_t splits = 0;             ///< Key-alignment splits performed.
  uint64_t cpu_nanos = 0;          ///< CPU service time of the call.

  MeldWork& operator+=(const MeldWork& o) {
    nodes_visited += o.nodes_visited;
    ephemeral_created += o.ephemeral_created;
    grafts += o.grafts;
    conflict_checks += o.conflict_checks;
    splits += o.splits;
    cpu_nanos += o.cpu_nanos;
    return *this;
  }

  std::string ToString() const;
  /// Emits every field as "<prefix>.<field>".
  void EmitTo(const std::string& prefix, const MetricEmit& emit) const;
};

/// Counters of the node arena (tree/node_pool). `live` is exact at any
/// quiescent point; the remaining counters reconcile as
/// `carved == live + free_shared + free_thread_cached` once the threads
/// that allocated have drained their caches.
struct ArenaStats {
  uint64_t live = 0;           ///< Nodes currently alive (LiveNodeCount).
  uint64_t allocated = 0;      ///< Total node allocations ever.
  uint64_t recycled = 0;  ///< Allocations served from a reused slot (lower
                          ///< bound: batched refills carve ahead of demand).
  uint64_t slabs = 0;          ///< Slabs obtained from the OS.
  uint64_t slab_bytes = 0;     ///< Bytes held in slabs.
  uint64_t carved = 0;         ///< Slots ever carved fresh from a slab.
  uint64_t free_shared = 0;    ///< Slots in the shared free list.
  uint64_t payload_heap_allocs = 0;  ///< Payloads that overflowed inline.
  uint64_t payload_heap_frees = 0;

  std::string ToString() const;
  void EmitTo(const std::string& prefix, const MetricEmit& emit) const;
};

/// Echo of the PipelineConfig knobs as the stage workers actually received
/// them, stamped at the point of consumption (premeld worker, group meld,
/// final meld). -1 means "that stage never ran". The config-plumbing
/// audit: a knob set in PipelineConfig but reported as -1 (or stale) here
/// was dropped somewhere between the config and the worker — the silent
/// failure mode PR 4 hit with `disable_graft_fastpath`.
struct ConfigEcho {
  int64_t premeld_threads = -1;
  int64_t premeld_distance = -1;
  int64_t group_meld = -1;
  int64_t state_retention = -1;
  int64_t disable_graft_fastpath = -1;

  /// Merge = field-wise max: stamped values (>= 0) win over never-stamped
  /// (-1), and every stamper writes the same value because all workers
  /// share one config.
  void Observe(const ConfigEcho& o);

  std::string ToString() const;
  void EmitTo(const std::string& prefix, const MetricEmit& emit) const;
};

/// Aggregate statistics of a pipeline run, broken down by stage.
struct PipelineStats {
  uint64_t intentions = 0;      ///< Intentions entering the pipeline.
  uint64_t committed = 0;       ///< Transactions committed by final meld.
  uint64_t aborted = 0;         ///< Aborted (incl. premeld early aborts).
  uint64_t premeld_aborts = 0;  ///< Aborts detected during premeld.
  uint64_t premeld_skips = 0;   ///< Premelds skipped (target <= snapshot).

  /// Node-pool churn audit for premeld kills: wire node count of intentions
  /// premeld aborted, and how many of those nodes actually reached the
  /// pool. Nodes materialize lazily, so `materialized` stays far below
  /// `killed_nodes` — the allocations the zero-copy layout saves on dead
  /// intentions.
  uint64_t premeld_killed_nodes = 0;
  uint64_t premeld_killed_nodes_materialized = 0;
  uint64_t group_singletons = 0;  ///< Group intentions that degenerated to one.

  MeldWork deserialize;  ///< ds stage work (cpu_nanos only).
  MeldWork premeld;      ///< pm stage work.
  MeldWork group_meld;   ///< gm stage work.
  MeldWork final_meld;   ///< fm stage work.

  /// Sum over conflict-zone lengths (in intentions) observed by final meld,
  /// for Fig. 12. Divide by `final_melds` for the average.
  uint64_t conflict_zone_sum = 0;
  uint64_t final_melds = 0;

  /// Resolver-internal lock acquisitions performed by the group and final
  /// meld stages (`SequentialPipeline::Meld`/`Flush`), measured via the
  /// thread-local counter in common/lock_counter.h. Premeld is never
  /// charged, on either driver, even when it runs inline on the same
  /// thread. The meld hot path's contention budget per intention.
  uint64_t fm_resolver_locks = 0;

  /// Lane FIFO contention (threaded pipeline only): pushes that slept on a
  /// full FIFO, the caller's onto a lane's input or a worker's onto its
  /// hand-off (the lanes are sized so that none does), and the caller's
  /// pops that slept on an empty hand-off (pipeline bubbles).
  uint64_t handoff_blocked_pushes = 0;
  uint64_t handoff_blocked_pops = 0;
  /// Time those sleeps cost, in nanoseconds (the pipeline-latency shape of
  /// the paper's Fig. 13 analysis: bubbles vs. back-pressure).
  uint64_t handoff_blocked_push_nanos = 0;
  uint64_t handoff_blocked_pop_nanos = 0;

  /// Abort forensics (common/abort_info.h): decisions bucketed by typed
  /// cause and by the stage that killed them. Indexed by AbortCause /
  /// AbortStage enumerator values; index 0 (kNone) stays zero. The sum over
  /// `aborts_by_cause` equals `aborted` (admission rejections never enter
  /// the pipeline, so kAbortBusy is counted by the open-loop driver, not
  /// here).
  uint64_t aborts_by_cause[kAbortCauseCount] = {};
  uint64_t aborts_by_stage[kAbortStageCount] = {};

  /// See ConfigEcho: knobs as the stages consumed them.
  ConfigEcho config_echo;

  /// Buckets one abort decision into the cause/stage arrays.
  void RecordAbort(const AbortInfo& a) {
    aborts_by_cause[static_cast<size_t>(a.cause)]++;
    aborts_by_stage[static_cast<size_t>(a.stage)]++;
  }

  PipelineStats& operator+=(const PipelineStats& o);

  std::string ToString() const;
  void EmitTo(const std::string& prefix, const MetricEmit& emit) const;
};

}  // namespace hyder

#endif  // HYDER2_COMMON_METRICS_H_
