#include "server/open_loop.h"

#include <algorithm>

#include "common/abort_info.h"
#include "common/stopwatch.h"

namespace hyder {

OpenLoopDriver::OpenLoopDriver(HyderServer* server, OpenLoopOptions options,
                               TxnFactory factory)
    : server_(server),
      options_(std::move(options)),
      factory_(std::move(factory)),
      slo_hist_(MetricsRegistry::Global().histogram(
          options_.label.empty()
              ? "slo.decision_latency_us"
              : "slo.decision_latency_us." + options_.label)) {
  metrics_ = MetricsRegistry::Global().RegisterProvider(
      "open_loop", [this](const MetricsRegistry::Emit& emit) {
        emit("arrivals", double(report_.arrivals));
        emit("submitted", double(report_.submitted));
        emit("busy_rejected", double(report_.busy_rejected));
        emit("read_only", double(report_.read_only));
        emit("committed", double(report_.committed));
        emit("aborted", double(report_.aborted));
        emit("undecided", double(intended_.size()));
        for (int c = 1; c < kAbortCauseCount; ++c) {
          emit(std::string("abort.") +
                   AbortCauseName(static_cast<AbortCause>(c)),
               double(report_.aborts_by_cause[c]));
        }
      });
}

void OpenLoopDriver::HandleDecisions(
    const std::vector<MeldDecision>& decisions,
    uint64_t* last_decision_nanos) {
  const uint64_t now = Stopwatch::NowNanos();
  for (const MeldDecision& d : decisions) {
    auto it = intended_.find(d.txn_id);
    if (it == intended_.end()) continue;  // Another server's transaction.
    const uint64_t us =
        now > it->second ? (now - it->second) / 1000 : 0;
    report_.latency_us.Add(us);
    slo_hist_->Add(us);
    intended_.erase(it);
    *last_decision_nanos = now;
    if (d.committed) {
      report_.committed++;
    } else {
      report_.aborted++;
      report_.aborts_by_cause[static_cast<size_t>(d.abort.cause)]++;
    }
  }
}

Result<SloReport> OpenLoopDriver::Run(
    const std::vector<uint64_t>& schedule) {
  const uint64_t t0 = Stopwatch::NowNanos();
  uint64_t last_decision = t0;
  for (uint64_t offset : schedule) {
    const uint64_t intended = t0 + offset;
    // Ahead of schedule: drive the pipeline until the next arrival is due.
    // Behind schedule: fall straight through — the arrival happens late,
    // and the lateness is charged to its latency, not forgiven.
    while (Stopwatch::NowNanos() < intended) {
      HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> decisions,
                             server_->Poll(1));
      HandleDecisions(decisions, &last_decision);
    }
    report_.arrivals++;
    Transaction txn = server_->Begin(options_.isolation);
    HYDER_RETURN_IF_ERROR(factory_(txn));
    const uint64_t txn_id = txn.txn_id();
    Result<HyderServer::Submitted> sub = server_->Submit(std::move(txn));
    if (!sub.ok()) {
      if (!sub.status().IsBusy()) return sub.status();
      // Admission control shed this arrival. The rejection *is* its
      // decision — typed kAbortBusy, latency from the intended start.
      report_.busy_rejected++;
      const AbortInfo abort = MakeAdmissionRejectAbort();
      report_.aborts_by_cause[static_cast<size_t>(abort.cause)]++;
      const uint64_t now = Stopwatch::NowNanos();
      const uint64_t us = now > intended ? (now - intended) / 1000 : 0;
      report_.latency_us.Add(us);
      slo_hist_->Add(us);
      continue;
    }
    report_.submitted++;
    if (sub->decided) {
      // Read-only: committed locally against its snapshot, decided at
      // submit time.
      report_.read_only++;
      report_.committed++;
      const uint64_t now = Stopwatch::NowNanos();
      const uint64_t us = now > intended ? (now - intended) / 1000 : 0;
      report_.latency_us.Add(us);
      slo_hist_->Add(us);
      continue;
    }
    intended_[txn_id] = intended;
  }

  // Drain: decisions for the tail of the schedule. A trailing group-pair
  // member can be undecided forever, so give up after a bounded run of
  // empty polls.
  constexpr uint64_t kMaxIdleDrainPolls = 64;
  uint64_t idle = 0;
  while (!intended_.empty() && idle < kMaxIdleDrainPolls) {
    HYDER_ASSIGN_OR_RETURN(std::vector<MeldDecision> decisions,
                           server_->Poll(1));
    bool progressed = false;
    const size_t before = intended_.size();
    HandleDecisions(decisions, &last_decision);
    progressed = intended_.size() < before;
    idle = progressed ? 0 : idle + 1;
  }
  report_.undecided = intended_.size();

  const double span_seconds =
      schedule.empty() ? 0 : double(schedule.back()) / 1e9;
  report_.elapsed_seconds = double(last_decision - t0) / 1e9;
  report_.offered_tps =
      span_seconds > 0 ? double(report_.arrivals) / span_seconds : 0;
  report_.goodput_tps = report_.elapsed_seconds > 0
                            ? double(report_.committed) /
                                  report_.elapsed_seconds
                            : 0;
  return report_;
}

}  // namespace hyder
