#include "log/fault_log.h"

#include <string>
#include <utility>

namespace hyder {

FaultInjectingLog::FaultInjectingLog(SharedLog* base,
                                     FaultInjectionOptions options)
    : base_(base), options_(options), rng_(options.seed) {
  metrics_ = MetricsRegistry::Global().RegisterProvider(
      "log.fault", [this](const MetricsRegistry::Emit& emit) {
        EmitLogStats(stats(), emit);
        const FaultCounts c = fault_counts();
        emit("append_failures", double(c.append_failures));
        emit("duplicate_appends", double(c.duplicate_appends));
        emit("torn_appends", double(c.torn_appends));
        emit("read_failures", double(c.read_failures));
        emit("dataloss_reads", double(c.dataloss_reads));
      });
}

Result<uint64_t> FaultInjectingLog::Append(std::string block) {
  MutexLock lock(mu_);
  if (forced_append_skip_ > 0) {
    forced_append_skip_--;
  } else if (forced_append_failures_ > 0) {
    forced_append_failures_--;
    stats_.errors++;
    return Status::Internal("append failed (forced outage); nothing landed");
  }
  // One uniform draw partitioned by cumulative probability keeps the fault
  // schedule a pure function of (seed, operation index).
  double d = rng_.NextDouble();
  if (d < options_.append_fail_p) {
    counts_.append_failures++;
    stats_.errors++;
    return Status::Unavailable("append failed (injected); nothing landed");
  }
  d -= options_.append_fail_p;
  if (d < options_.append_duplicate_p) {
    // The block lands, but the ack is lost: the ambiguous-append case.
    Result<uint64_t> landed = base_->Append(block);
    if (!landed.ok()) return landed;
    counts_.duplicate_appends++;
    stats_.errors++;
    return Status::Unavailable(
        "append acknowledgement lost (injected); block landed at position " +
        std::to_string(*landed));
  }
  d -= options_.append_duplicate_p;
  if (d < options_.append_torn_p && block.size() > 1) {
    // A strict, non-empty prefix lands. It cannot decode as a complete
    // block, so consumers skip it; the caller retries the full block.
    const size_t torn_len = 1 + rng_.Uniform(block.size() - 1);
    Result<uint64_t> landed = base_->Append(block.substr(0, torn_len));
    if (!landed.ok()) return landed;
    counts_.torn_appends++;
    stats_.errors++;
    return Status::Unavailable(
        "torn append (injected): " + std::to_string(torn_len) + " of " +
        std::to_string(block.size()) + " bytes landed at position " +
        std::to_string(*landed));
  }
  Result<uint64_t> r = base_->Append(std::move(block));
  if (r.ok()) {
    stats_.appends++;
  } else {
    stats_.errors++;
  }
  return r;
}

Result<std::string> FaultInjectingLog::Read(uint64_t position) {
  MutexLock lock(mu_);
  if (decayed_.count(position) != 0) {
    counts_.dataloss_reads++;
    stats_.errors++;
    return Status::DataLoss("stored bytes decayed at position " +
                            std::to_string(position) + " (injected)");
  }
  double d = rng_.NextDouble();
  if (d < options_.read_fail_p) {
    counts_.read_failures++;
    stats_.errors++;
    return Status::Unavailable("read failed (injected) at position " +
                               std::to_string(position));
  }
  d -= options_.read_fail_p;
  if (d < options_.read_dataloss_p && position != 0 &&
      position < base_->Tail()) {
    decayed_.insert(position);
    counts_.dataloss_reads++;
    stats_.errors++;
    return Status::DataLoss("stored bytes decayed at position " +
                            std::to_string(position) + " (injected)");
  }
  Result<std::string> r = base_->Read(position);
  if (r.ok()) {
    stats_.reads++;
  } else {
    stats_.errors++;
  }
  return r;
}

void FaultInjectingLog::RecordRetry() {
  {
    MutexLock lock(mu_);
    stats_.retries++;
  }
  base_->RecordRetry();
}

LogStats FaultInjectingLog::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void FaultInjectingLog::CorruptPosition(uint64_t position) {
  MutexLock lock(mu_);
  decayed_.insert(position);
}

void FaultInjectingLog::FailNextAppends(uint64_t n, uint64_t after) {
  MutexLock lock(mu_);
  forced_append_skip_ += after;
  forced_append_failures_ += n;
}

Status FaultInjectingLog::Truncate(uint64_t low_water_position) {
  Status s = base_->Truncate(low_water_position);
  MutexLock lock(mu_);
  if (s.ok()) {
    // Mirror the base's counters so "log.fault.*" (what chaos runs export)
    // carries the mark even when the base log is not separately registered.
    const uint64_t new_mark = base_->LowWaterMark();
    if (new_mark > stats_.low_water) {
      stats_.truncations++;
      stats_.truncated_blocks += new_mark - stats_.low_water;
      stats_.low_water = new_mark;
    }
  } else {
    stats_.errors++;
  }
  return s;
}

FaultInjectingLog::FaultCounts FaultInjectingLog::fault_counts() const {
  MutexLock lock(mu_);
  return counts_;
}

}  // namespace hyder
