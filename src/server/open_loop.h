#ifndef HYDER2_SERVER_OPEN_LOOP_H_
#define HYDER2_SERVER_OPEN_LOOP_H_

// Open-loop load driver with coordinated-omission-safe latency reporting.
//
// The closed-loop driver (server/driver.h) backs off exactly when the
// system slows down: a stalled pipeline stops new submissions, so the
// latency a closed-loop run reports is the latency of a load that
// conveniently shrank during every bad patch — the coordinated-omission
// trap. This driver instead follows a precomputed intended-arrival
// schedule (workload/arrival.h): every transaction has a timestamp at
// which it *should* have started, the schedule never waits for the
// system, and each decision latency is measured from the intended start.
// Backlog a slow meld causes is therefore charged to the transactions
// that waited, and admission-control rejections are counted as shed load
// (typed kAbortBusy provenance) instead of silently vanishing.

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/registry.h"
#include "server/server.h"

namespace hyder {

/// Configuration of one open-loop run.
struct OpenLoopOptions {
  IsolationLevel isolation = IsolationLevel::kSerializable;
  /// Suffix for the run's registry histogram, which is named
  /// "slo.decision_latency_us[.<label>]" — label sweeps (one run per zipf
  /// theta, say) so each run's distribution survives in --metrics-json.
  std::string label;
};

/// Per-run SLO summary. Latencies are decision latencies in microseconds,
/// measured from the transaction's *intended* start per the schedule —
/// not from when the driver got around to submitting it.
struct SloReport {
  double offered_tps = 0;      ///< arrivals / schedule span.
  double goodput_tps = 0;      ///< commits / elapsed wall time.
  double elapsed_seconds = 0;  ///< First intended start to last decision.
  uint64_t arrivals = 0;
  uint64_t submitted = 0;      ///< Accepted by admission control.
  uint64_t busy_rejected = 0;  ///< Shed by admission control (kAbortBusy).
  uint64_t read_only = 0;      ///< Decided locally, never logged.
  uint64_t committed = 0;
  uint64_t aborted = 0;        ///< Meld aborts (excludes busy_rejected).
  uint64_t undecided = 0;      ///< Still pending when the drain gave up.
  /// CO-safe decision latency (committed, aborted and shed transactions
  /// all count: shed load is an SLO miss, not a non-event).
  Histogram latency_us;
  /// Decision-cause breakdown, indexed by AbortCause (busy rejections
  /// land in kAbortBusy).
  uint64_t aborts_by_cause[kAbortCauseCount] = {};
};

/// Drives one server from an intended-arrival schedule. Single-threaded,
/// like the server itself: between arrivals the driver advances the meld
/// pipeline, so wall-clock time maps one-to-one onto the single-core
/// evaluation host's budget (DESIGN.md "Substitutions").
class OpenLoopDriver {
 public:
  using TxnFactory = std::function<Status(Transaction&)>;

  OpenLoopDriver(HyderServer* server, OpenLoopOptions options,
                 TxnFactory factory);

  /// Runs the whole schedule (nanosecond offsets from start, from
  /// BuildArrivalSchedule) and returns the SLO summary.
  Result<SloReport> Run(const std::vector<uint64_t>& schedule);

 private:
  void HandleDecisions(const std::vector<MeldDecision>& decisions,
                       uint64_t* last_decision_nanos);

  HyderServer* const server_;
  const OpenLoopOptions options_;
  TxnFactory factory_;
  SloReport report_;
  /// Intended absolute start per in-flight local txn id.
  std::unordered_map<uint64_t, uint64_t> intended_;
  /// Registry copy of report_.latency_us ("slo.decision_latency_us").
  LatencyHistogram* slo_hist_;
  /// "open_loop.*" gauges; snapshot on the driving thread only.
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_SERVER_OPEN_LOOP_H_
