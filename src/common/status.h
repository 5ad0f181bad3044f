#ifndef HYDER2_COMMON_STATUS_H_
#define HYDER2_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace hyder {

/// Error category for a `Status`.
///
/// The library does not use exceptions; every fallible operation returns a
/// `Status` (or a `Result<T>`, see result.h). The codes mirror the situations
/// that arise in a shared-log OCC system:
///  - `kAborted`        the transaction experienced an OCC conflict and the
///                      meld algorithm discarded its intention;
///  - `kSnapshotTooOld` the transaction referenced state (e.g. an ephemeral
///                      node) that has been retired from the retained window;
///  - `kBusy`           admission control rejected the request (too many
///                      in-flight transactions);
///  - the rest are conventional storage-system codes.
enum class StatusCode : int {
  kOk = 0,
  kAborted = 1,
  kNotFound = 2,
  kInvalidArgument = 3,
  kCorruption = 4,
  kTimedOut = 6,
  kSnapshotTooOld = 7,
  kBusy = 8,
  kNotSupported = 9,
  kInternal = 11,
  kUnavailable = 12,
  kDataLoss = 13,
  kTruncated = 14,
};

/// Returns a stable human-readable name for `code` ("OK", "Aborted", ...).
std::string_view StatusCodeName(StatusCode code);

/// Value-type result of a fallible operation: a code plus optional message.
///
/// `Status` is cheap to copy when OK (no allocation) and carries an explanatory
/// message otherwise. Use the static factories (`Status::Aborted(...)`) to
/// construct errors and the `ok()` / `IsAborted()` / ... predicates to test.
///
/// Marked [[nodiscard]]: a dropped Status is a swallowed failure. Callers
/// that genuinely want to ignore one (e.g. best-effort cleanup) must say so
/// with an explicit cast or by naming the value.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status TimedOut(std::string msg) {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status SnapshotTooOld(std::string msg) {
    return Status(StatusCode::kSnapshotTooOld, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(StatusCode::kBusy, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// A transient storage/service failure: the operation did not happen (or
  /// its acknowledgement was lost) and may be retried. The log fault model
  /// (log/fault_log.h) reports injected transient errors with this code, and
  /// RetryingLog (log/retrying_log.h) retries exactly this code.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// Detected, unrecoverable loss of stored bytes (e.g. a slot whose CRC no
  /// longer matches). Unlike kCorruption — a malformed *encoding* — DataLoss
  /// means the medium lost data; retrying cannot help, recovery must fall
  /// back to redundancy (another replica, an earlier checkpoint).
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  /// The addressed log prefix was reclaimed behind the cluster's low-water
  /// mark (log truncation, DESIGN.md "Log truncation & catch-up"). Unlike
  /// `NotFound` (past the tail — may appear later) and `DataLoss` (the
  /// medium failed), a truncated position was discarded *on purpose*: the
  /// data is recoverable from the checkpoint that anchored the truncation,
  /// so consumers fall back to checkpoint state instead of retrying.
  static Status Truncated(std::string msg) {
    return Status(StatusCode::kTruncated, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsSnapshotTooOld() const {
    return code_ == StatusCode::kSnapshotTooOld;
  }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDataLoss() const { return code_ == StatusCode::kDataLoss; }
  bool IsTruncated() const { return code_ == StatusCode::kTruncated; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;  // Messages are informational only.
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Propagates a non-OK status to the caller. Usable only in functions that
/// themselves return `Status`.
#define HYDER_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::hyder::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace hyder

#endif  // HYDER2_COMMON_STATUS_H_
