#include "server/chaos.h"

#include <chrono>
#include <thread>
#include <utility>

#include "server/cluster.h"

namespace hyder {

namespace {

/// Uniform [0,1) from one stateless 64-bit mix (top 53 bits).
double UnitDraw(uint64_t x) {
  return double(Mix64(x) >> 11) * (1.0 / 9007199254740992.0);
}

/// Sub-stream salts, so the scheduler, the log faults and each stage-probe
/// schedule draw from disjoint deterministic streams of one seed.
constexpr uint64_t kSchedulerSalt = 0x5c8edu;
constexpr uint64_t kLogFaultSalt = 0x10f417u;
constexpr uint64_t kProbeSalt = 0x9c0be5u;

FaultInjectionOptions DeriveFaults(const ChaosOptions& options) {
  FaultInjectionOptions faults = options.log_faults;
  faults.seed = Mix64(options.seed ^ kLogFaultSalt);
  return faults;
}

}  // namespace

ChaosOptions MakeChaosOptions(uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.log.block_size = 4096;
  options.log.storage_units = 3;
  // Modest transient fault rates; sticky DataLoss stays off — a decayed
  // block below every future anchor would make convergence impossible by
  // construction, which is a storage-durability problem, not a protocol one
  // (recovery_test covers DataLoss handling in isolation).
  options.log_faults.append_fail_p = 0.01;
  options.log_faults.append_duplicate_p = 0.01;
  options.log_faults.append_torn_p = 0.005;
  options.log_faults.read_fail_p = 0.01;
  options.server.pipeline.premeld_threads = 2;
  options.server.pipeline.premeld_distance = 4;
  options.server.pipeline.group_meld = true;
  return options;
}

ChaosDriver::ChaosDriver(ChaosOptions options)
    : options_(std::move(options)),
      rng_(Mix64(options_.seed ^ kSchedulerSalt)),
      base_log_(options_.log),
      log_(&base_log_, DeriveFaults(options_)),
      retrying_log_(&log_),
      truncator_(&retrying_log_) {
  replicas_.resize(size_t(options_.num_servers));
  for (int i = 0; i < options_.num_servers; ++i) {
    replicas_[size_t(i)].id = i;
    replicas_[size_t(i)].server = std::make_unique<HyderServer>(
        &retrying_log_, OptionsFor(replicas_[size_t(i)], /*benign=*/false));
  }
  metrics_ = MetricsRegistry::Global().RegisterProvider(
      "chaos", [this](const MetricsRegistry::Emit& emit) {
        emit("rounds", double(report_.rounds));
        emit("txns_submitted", double(report_.txns_submitted));
        emit("txns_committed", double(report_.txns_committed));
        emit("txns_aborted", double(report_.txns_aborted));
        emit("busy_rejections", double(report_.busy_rejections));
        emit("catching_up_rejections",
             double(report_.catching_up_rejections));
        emit("append_crashes", double(report_.append_crashes));
        emit("stage_crashes", double(report_.stage_crashes));
        emit("stage_stalls", double(report_.stage_stalls));
        emit("kills", double(report_.kills));
        emit("restarts", double(report_.restarts));
        emit("rejoins", double(report_.rejoins));
        emit("catchup_restarts", double(report_.catchup_restarts));
        emit("checkpoints_written", double(report_.checkpoints_written));
        emit("checkpoint_failures", double(report_.checkpoint_failures));
        emit("mid_checkpoint_crashes",
             double(report_.mid_checkpoint_crashes));
        emit("truncations", double(report_.truncations));
        emit("truncation_busy", double(report_.truncation_busy));
        emit("blocks_reclaimed", double(report_.blocks_reclaimed));
      });
}

ServerOptions ChaosDriver::OptionsFor(const Replica& replica, bool benign) {
  ServerOptions opts = options_.server;
  opts.server_id = replica.id;
  if (benign || (options_.stage_crash_p <= 0 && options_.stage_stall_p <= 0)) {
    opts.pipeline.stage_probe = nullptr;
    return opts;
  }
  // The schedule is a pure function of (seed, server, incarnation, stage,
  // seq): thread interleaving cannot move a fault, and a restarted server
  // draws a fresh incarnation stream, so one crash point cannot refire
  // forever across its replays.
  const uint64_t salt = Mix64(options_.seed ^ kProbeSalt ^
                              (uint64_t(replica.id) << 32) ^
                              replica.incarnation);
  const double crash_p = options_.stage_crash_p;
  const double stall_p = options_.stage_stall_p;
  const uint64_t stall_nanos = options_.stage_stall_nanos;
  opts.pipeline.stage_probe = [this, salt, crash_p, stall_p, stall_nanos](
                                  PipelineStage stage, uint64_t seq) {
    // Surviving servers carry their probes into the epilogue; the flag
    // (flipped between rounds, read on the same driver thread) disarms
    // them so the final drain terminates.
    if (benign_) return Status::OK();
    const double u =
        UnitDraw(salt ^ (uint64_t(stage) << 56) ^ seq);
    if (u < crash_p) {
      report_.stage_crashes++;
      return Status::Internal("chaos: injected crash at stage " +
                              std::to_string(int(stage)) + ", seq " +
                              std::to_string(seq));
    }
    if (u < crash_p + stall_p) {
      report_.stage_stalls++;
      if (stall_nanos > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_nanos));
      }
    }
    return Status::OK();
  };
  return opts;
}

CatchUpOptions ChaosDriver::CatchUpOptionsFor(const Replica& replica,
                                              bool benign) {
  CatchUpOptions opts;
  opts.server = OptionsFor(replica, benign);
  opts.replay_batch = 64;
  return opts;
}

std::vector<HyderServer*> ChaosDriver::ServingServers() {
  std::vector<HyderServer*> serving;
  for (Replica& r : replicas_) {
    if (r.server) serving.push_back(r.server.get());
  }
  return serving;
}

Status ChaosDriver::RunTraffic() {
  for (size_t t = 0; t < options_.txns_per_round; ++t) {
    Replica& r = replicas_[rng_.Uniform(replicas_.size())];
    if (r.session) {
      HyderServer* mid = r.session->server();
      if (mid == nullptr) continue;
      // Graceful-degradation invariant: a rebuilding server must refuse
      // work with Busy — anything else is a harness failure, not chaos.
      Transaction probe = mid->Begin();
      HYDER_RETURN_IF_ERROR(probe.Put(rng_.Uniform(options_.keyspace), "x"));
      Result<HyderServer::Submitted> sub = mid->Submit(std::move(probe));
      if (sub.ok() || !sub.status().IsBusy()) {
        return Status::Internal(
            "catching-up server accepted a transaction");
      }
      report_.catching_up_rejections++;
      continue;
    }
    if (!r.server) continue;
    Transaction txn = r.server->Begin();
    bool abandoned = false;
    for (size_t op = 0; op < options_.ops_per_txn; ++op) {
      const Key key = Key(rng_.Uniform(options_.keyspace));
      const double kind = rng_.NextDouble();
      Status op_status = Status::OK();
      if (kind < 0.65) {
        op_status = txn.Put(key, "v" + std::to_string(rng_.Uniform(1000)));
      } else if (kind < 0.85) {
        op_status = txn.Get(key).status();
      } else {
        op_status = txn.Delete(key).status();
      }
      if (!op_status.ok()) {
        // A faulty-log resolve exhausted its retries mid-operation; the
        // workspace may be inconsistent, so drop the transaction.
        abandoned = true;
        break;
      }
    }
    if (abandoned) continue;
    report_.txns_submitted++;
    Result<HyderServer::Submitted> sub = r.server->Submit(std::move(txn));
    if (sub.ok()) {
      if (sub->decided && sub->committed) report_.txns_committed++;
      continue;
    }
    if (sub.status().IsBusy()) {
      report_.busy_rejections++;
    } else if (sub.status().IsUnavailable()) {
      // Append retries exhausted; ambiguous (a copy may have landed and
      // will be decided as an orphan). The server itself is fine.
      report_.txns_aborted++;
    } else {
      // A forced outage (or similar hard append error) mid-transaction:
      // model it as the appender crashing.
      report_.append_crashes++;
      r.server.reset();
    }
  }
  return Status::OK();
}

void ChaosDriver::PollServing() {
  for (Replica& r : replicas_) {
    if (!r.server) continue;
    Result<std::vector<MeldDecision>> polled = r.server->Poll();
    if (!polled.ok()) {
      // An injected stage crash (counted by the probe) or a storage error
      // that outlived the retry budget: the pipeline may hold a partially
      // fed intention, so the server object is unusable — it "crashed".
      r.server.reset();
      continue;
    }
    for (const MeldDecision& d : *polled) {
      // Count each decision once, at its owning server (approximate when
      // the owner is down: orphans are decided but unattributed).
      if (TxnOrigin(d.txn_id) == TxnOrigin(MakeTxnId(r.id, 0))) {
        if (d.committed) {
          report_.txns_committed++;
        } else {
          report_.txns_aborted++;
        }
      }
    }
  }
}

void ChaosDriver::MaybeCheckpoint() {
  if (!rng_.Bernoulli(options_.checkpoint_p)) return;
  std::vector<HyderServer*> ready;
  for (HyderServer* s : ServingServers()) {
    if (s->next_read_position() >= log_.Tail() &&
        s->assembler().pending() == 0 && !s->pipeline().has_pending_group()) {
      ready.push_back(s);
    }
  }
  if (ready.empty()) return;
  HyderServer* writer = ready[rng_.Uniform(ready.size())];
  if (rng_.Bernoulli(options_.mid_checkpoint_crash_p)) {
    // The writer will die partway through: a few blocks land, then the
    // forced outage kills the write, leaving a partial checkpoint that
    // every future recovery scan must step over.
    log_.FailNextAppends(1 + rng_.Uniform(2), rng_.Uniform(3));
    report_.mid_checkpoint_crashes++;
  }
  Result<CheckpointInfo> written = WriteCheckpoint(*writer);
  if (written.ok()) {
    report_.checkpoints_written++;
    last_checkpoint_ = *written;
  } else {
    report_.checkpoint_failures++;
  }
}

void ChaosDriver::MaybeTruncate() {
  if (!last_checkpoint_.has_value()) return;
  if (!rng_.Bernoulli(options_.truncate_p)) return;
  std::vector<HyderServer*> serving = ServingServers();
  if (serving.empty()) return;
  Result<TruncationReport> truncated =
      truncator_.TruncateToCheckpoint(*last_checkpoint_, serving);
  if (truncated.ok()) {
    if (truncated->blocks_reclaimed > 0) report_.truncations++;
    report_.blocks_reclaimed += truncated->blocks_reclaimed;
  } else {
    // Typically Busy: someone is mid-assembly or holds undecided local
    // transactions. The next round simply tries again.
    report_.truncation_busy++;
  }
}

void ChaosDriver::MaybeKill() {
  if (!rng_.Bernoulli(options_.kill_p)) return;
  std::vector<Replica*> serving;
  for (Replica& r : replicas_) {
    if (r.server) serving.push_back(&r);
  }
  if (int(serving.size()) <= options_.min_live) return;
  Replica* victim = serving[rng_.Uniform(serving.size())];
  victim->server.reset();
  report_.kills++;
}

void ChaosDriver::StepCatchUps(bool benign) {
  for (Replica& r : replicas_) {
    if (!r.server && !r.session && rng_.Bernoulli(options_.restart_p)) {
      r.incarnation++;
      r.session = std::make_unique<CatchUpSession>(
          &retrying_log_, CatchUpOptionsFor(r, benign));
      report_.restarts++;
    }
    if (!r.session) continue;
    for (size_t s = 0; s < options_.catchup_steps_per_round; ++s) {
      Status stepped = r.session->Step();
      if (!stepped.ok()) {
        // An injected stage crash during replay: this incarnation is dead;
        // a later round restarts the next one (fresh probe stream).
        report_.catchup_restarts += r.session->report().restarts;
        r.session.reset();
        break;
      }
      if (r.session->done()) {
        report_.catchup_restarts += r.session->report().restarts;
        r.server = r.session->TakeServer();
        r.session.reset();
        report_.rejoins++;
        break;
      }
    }
  }
}

Status ChaosDriver::Epilogue() {
  // Disarm the stage probes still attached to surviving servers, revive
  // everything else with benign probes (the epilogue must terminate), and
  // replace sessions started under a crash-prone incarnation.
  benign_ = true;
  for (Replica& r : replicas_) {
    if (r.server) continue;
    if (r.session) {
      report_.catchup_restarts += r.session->report().restarts;
      r.session.reset();
    }
    r.incarnation++;
    r.session = std::make_unique<CatchUpSession>(
        &retrying_log_, CatchUpOptionsFor(r, /*benign=*/true));
    report_.restarts++;
  }
  for (uint64_t steps = 0;; ++steps) {
    bool any = false;
    for (Replica& r : replicas_) {
      if (!r.session) continue;
      any = true;
      HYDER_RETURN_IF_ERROR(r.session->Step());
      if (r.session->done()) {
        report_.catchup_restarts += r.session->report().restarts;
        r.server = r.session->TakeServer();
        r.session.reset();
        report_.rejoins++;
      }
    }
    if (!any) break;
    if (steps > 200000) {
      return Status::Internal("epilogue: catch-up did not complete");
    }
  }
  // Quiesce: everyone to the tail, then drain undecided group-pair members
  // with filler transactions so the final truncation can pass the
  // full-quiescence check.
  for (int guard = 0;; ++guard) {
    if (guard > 64) {
      return Status::Internal("epilogue: cluster did not quiesce");
    }
    for (Replica& r : replicas_) {
      if (!r.server) continue;
      Result<std::vector<MeldDecision>> polled = r.server->Poll();
      if (!polled.ok() && !polled.status().IsUnavailable()) {
        return polled.status();
      }
    }
    bool at_tail = true;
    bool inflight = false;
    for (HyderServer* s : ServingServers()) {
      if (s->next_read_position() < log_.Tail() ||
          s->assembler().pending() != 0) {
        at_tail = false;
      }
      // A buffered group-pair member also needs draining: checkpoints are
      // Busy while one is deferred, and its decision is still pending.
      if (s->inflight() != 0 || s->pipeline().has_pending_group()) {
        inflight = true;
      }
    }
    if (!at_tail) continue;
    if (!inflight) break;
    std::vector<HyderServer*> serving = ServingServers();
    if (serving.empty()) {
      return Status::Internal("epilogue: no serving server");
    }
    Transaction filler = serving[0]->Begin();
    HYDER_RETURN_IF_ERROR(filler.Put(Key(rng_.Uniform(options_.keyspace)),
                                     "drain"));
    // Failures here (leftover forced outages, exhausted retries) just try
    // again on the next lap of the guard loop.
    (void)serving[0]->Submit(std::move(filler));
  }
  // Final checkpoint + truncation: the run must end with the prefix
  // actually reclaimed, or the bounded-log assertion means nothing.
  Result<CheckpointInfo> final_ckpt =
      Status::Internal("checkpoint not attempted");
  for (int attempt = 0; attempt < 10 && !final_ckpt.ok(); ++attempt) {
    std::vector<HyderServer*> serving = ServingServers();
    if (serving.empty()) {
      return Status::Internal("epilogue: no serving server");
    }
    final_ckpt = WriteCheckpoint(*serving[0]);
    if (!final_ckpt.ok()) report_.checkpoint_failures++;
  }
  HYDER_RETURN_IF_ERROR(final_ckpt.status());
  last_checkpoint_ = *final_ckpt;
  for (Replica& r : replicas_) {
    if (!r.server) continue;
    Result<std::vector<MeldDecision>> polled = r.server->Poll();
    if (!polled.ok() && !polled.status().IsUnavailable()) {
      return polled.status();
    }
  }
  HYDER_ASSIGN_OR_RETURN(
      TruncationReport truncated,
      truncator_.TruncateToCheckpoint(*last_checkpoint_, ServingServers()));
  if (truncated.blocks_reclaimed > 0) report_.truncations++;
  report_.blocks_reclaimed += truncated.blocks_reclaimed;
  // Convergence: every server must hold a physically identical latest
  // state (§3.4) — including the ones that lived through kills, bootstrap
  // and truncation-raced replays.
  std::vector<std::unique_ptr<HyderServer>> servers;
  for (Replica& r : replicas_) {
    if (!r.server) continue;
    report_.duplicate_blocks += r.server->duplicate_blocks();
    servers.push_back(std::move(r.server));
  }
  Cluster cluster(&retrying_log_, std::move(servers));
  std::string diff;
  HYDER_ASSIGN_OR_RETURN(report_.converged, cluster.StatesConverged(&diff));
  report_.diff = diff;
  report_.final_low_water = log_.LowWaterMark();
  report_.final_tail = log_.Tail();
  report_.retained_bytes = base_log_.RetainedBytes();
  return Status::OK();
}

Result<ChaosReport> ChaosDriver::Run() {
  for (uint64_t round = 0; round < options_.rounds; ++round) {
    HYDER_RETURN_IF_ERROR(RunTraffic());
    PollServing();
    MaybeCheckpoint();
    MaybeTruncate();
    MaybeKill();
    StepCatchUps(/*benign=*/false);
    report_.rounds++;
  }
  HYDER_RETURN_IF_ERROR(Epilogue());
  return report_;
}

}  // namespace hyder
