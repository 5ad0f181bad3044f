#ifndef HYDER2_LOG_RETRYING_LOG_H_
#define HYDER2_LOG_RETRYING_LOG_H_

#include <string>

#include "log/shared_log.h"

namespace hyder {

/// The one place a log client retries a transient log error. Every server
/// is a client of the shared log (§2, §5.1), so surviving a transient fault
/// is one decision, made here: an `Append` or `Read` that fails with
/// `Unavailable` is re-issued at once, up to `kMaxAttempts` attempts in
/// all, and each retry is reported through the inner log's `RecordRetry`
/// (`LogStats::retries`). Any other failure returns after one attempt:
/// `DataLoss`, `Corruption`, `NotFound`, `Truncated` and `Internal` are
/// deterministic, so a retry cannot change them. The remaining calls are
/// forwarded unchanged.
///
/// A retried append is safe only because the caller appends one block at a
/// time: a lost acknowledgement lands a copy right behind its original,
/// before the origin's next block, which is the one shape the assembler
/// drops (DESIGN.md "Failure model & recovery", the appender argument).
/// Compose it over a log that can return `Unavailable` (FaultInjectingLog);
/// the other logs never do, and their clients call them directly.
class RetryingLog final : public SharedLog {
 public:
  /// Attempts per operation, the first included.
  static constexpr int kMaxAttempts = 8;

  /// `inner` must outlive this wrapper; the wrapper takes no ownership.
  explicit RetryingLog(SharedLog* inner) : inner_(inner) {}

  Result<uint64_t> Append(std::string block) override {
    return Retry([&] { return inner_->Append(block); });
  }
  Result<std::string> Read(uint64_t position) override {
    return Retry([&] { return inner_->Read(position); });
  }
  uint64_t Tail() const override { return inner_->Tail(); }
  Status Truncate(uint64_t low_water_position) override {
    return inner_->Truncate(low_water_position);
  }
  uint64_t LowWaterMark() const override { return inner_->LowWaterMark(); }
  size_t block_size() const override { return inner_->block_size(); }
  void RecordRetry() override { inner_->RecordRetry(); }
  LogStats stats() const override { return inner_->stats(); }

 private:
  template <typename Op>
  auto Retry(const Op& op) -> decltype(op()) {
    for (int attempt = 1;; ++attempt) {
      auto r = op();
      if (r.ok() || !r.status().IsUnavailable() || attempt == kMaxAttempts) {
        return r;
      }
      inner_->RecordRetry();
    }
  }

  SharedLog* const inner_;
};

}  // namespace hyder

#endif  // HYDER2_LOG_RETRYING_LOG_H_
