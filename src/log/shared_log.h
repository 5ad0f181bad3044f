#ifndef HYDER2_LOG_SHARED_LOG_H_
#define HYDER2_LOG_SHARED_LOG_H_

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/result.h"

namespace hyder {

/// The shared, totally-ordered log at the heart of the Hyder architecture
/// (§1, §5.1): the database's only persistent representation and the only
/// point of arbitration between servers.
///
/// The unit of I/O is a fixed-size page, the *intention block*. `Append`
/// assigns the next position in the total order and stores the block;
/// `Read` returns the block at a position. Positions are 1-based; position
/// 0 is reserved ("before the first block").
class SharedLog {
 public:
  virtual ~SharedLog() = default;

  /// Appends a block, returning its assigned position. Blocks longer than
  /// `block_size()` are rejected with InvalidArgument. [[nodiscard]]: an
  /// ignored append result hides both the position (needed to detect lost
  /// acknowledgements) and the failure itself.
  [[nodiscard]] virtual Result<uint64_t> Append(std::string block) = 0;

  /// Reads the block at `position`. Fails with NotFound past the tail and
  /// with Truncated below the low-water mark (see `Truncate`).
  [[nodiscard]] virtual Result<std::string> Read(uint64_t position) = 0;

  /// The position that the next append will receive.
  virtual uint64_t Tail() const = 0;

  /// Discards every block at positions < `low_water_position` and advances
  /// the low-water mark. Positions are never reused: appends continue from
  /// the current tail, and reads below the mark fail with a typed
  /// `Truncated` status — never garbage, never NotFound. The mark is
  /// monotone; a call with a position at or below the current mark is a
  /// no-op (OK). Truncating at or past the tail is rejected with
  /// InvalidArgument — the caller's anchor checkpoint must itself stay
  /// readable. Default: NotSupported (read-only decorators, sims).
  [[nodiscard]] virtual Status Truncate(uint64_t low_water_position) {
    (void)low_water_position;
    return Status::NotSupported("log does not support truncation");
  }

  /// First position still readable. 1 until the first `Truncate`.
  virtual uint64_t LowWaterMark() const { return 1; }

  /// The configured block size in bytes.
  virtual size_t block_size() const = 0;

  /// `RetryingLog` reports each retry of a transient (`Unavailable`) error
  /// here, so a log's stats expose the retry burden its clients absorbed
  /// alongside the errors it produced. Default: not tracked.
  virtual void RecordRetry() {}

  /// Aggregate counters; implementations return a consistent snapshot taken
  /// under their internal lock. Default: no stats tracked.
  virtual struct LogStats stats() const;
};

/// Aggregate counters exposed by log implementations. Counters are mutated
/// under the implementation's mutex; `stats()` snapshots them under the same
/// mutex, so the returned struct is internally consistent.
struct LogStats {
  uint64_t appends = 0;
  uint64_t reads = 0;
  uint64_t bytes_appended = 0;
  /// Failed operations: I/O errors, detected corruption/data loss, and
  /// injected faults (log/fault_log.h).
  uint64_t errors = 0;
  /// Retries reported through `RecordRetry` (by `RetryingLog`).
  uint64_t retries = 0;
  /// Successful `Truncate` calls that advanced the low-water mark.
  uint64_t truncations = 0;
  /// Blocks discarded by truncation, cumulative.
  uint64_t truncated_blocks = 0;
  /// Current first readable position (gauge; 1 = nothing truncated).
  uint64_t low_water = 1;
};

inline LogStats SharedLog::stats() const { return LogStats{}; }

// Field-count guard (see common/metrics.cc): adding a LogStats counter
// without teaching EmitLogStats about it silently drops it from every
// metrics snapshot.
static_assert(sizeof(LogStats) == 8 * sizeof(uint64_t),
              "LogStats field added: update EmitLogStats and this count");

/// Publishes a LogStats snapshot field by field — the registry-provider
/// building block shared by every log implementation (each registers a
/// "log.<kind>" provider; see common/registry.h).
inline void EmitLogStats(const LogStats& s, const MetricEmit& emit) {
  emit("appends", double(s.appends));
  emit("reads", double(s.reads));
  emit("bytes_appended", double(s.bytes_appended));
  emit("errors", double(s.errors));
  emit("retries", double(s.retries));
  emit("truncations", double(s.truncations));
  emit("truncated_blocks", double(s.truncated_blocks));
  emit("low_water", double(s.low_water));
}

}  // namespace hyder

#endif  // HYDER2_LOG_SHARED_LOG_H_
