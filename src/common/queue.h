#ifndef HYDER2_COMMON_QUEUE_H_
#define HYDER2_COMMON_QUEUE_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "common/registry.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "common/trace.h"

namespace hyder {

/// Bounded multi-producer multi-consumer FIFO used between meld pipeline
/// stages.
///
/// Boundedness provides the back-pressure the paper relies on: when final
/// meld falls behind, the preprocessing stages (and ultimately the executors,
/// via admission control) stall instead of ballooning memory. `Close()`
/// drains-then-terminates consumers, which is how the pipeline shuts down.
///
/// A push or pop that has to sleep (queue full / empty) is booked in
/// `stats()`, in the optional latency histograms, and as a `handoff_wait`
/// trace span named by the caller's `trace_id` (the intention sequence in
/// the pipeline); a call that does not sleep records nothing.
template <typename T>
class BoundedQueue {
 public:
  /// `push_blocked_us` / `pop_blocked_us` (may be null) receive the length
  /// of every sleep in microseconds (see common/registry.h).
  explicit BoundedQueue(size_t capacity,
                        LatencyHistogram* push_blocked_us = nullptr,
                        LatencyHistogram* pop_blocked_us = nullptr)
      : capacity_(capacity),
        push_blocked_us_(push_blocked_us),
        pop_blocked_us_(pop_blocked_us) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false if the queue was closed.
  bool Push(T item, uint64_t trace_id = 0) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      TraceSpan span(TraceStage::kHandoffWait, trace_id);
      Stopwatch slept;
      stats_.blocked_pushes++;
      while (items_.size() >= capacity_ && !closed_) not_full_.Wait(mu_);
      stats_.blocked_push_nanos += Book(slept, push_blocked_us_);
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.Signal();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed *and* drained.
  std::optional<T> Pop(uint64_t trace_id = 0) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (items_.empty() && !closed_) {
      TraceSpan span(TraceStage::kHandoffWait, trace_id);
      Stopwatch slept;
      stats_.blocked_pops++;
      while (items_.empty() && !closed_) not_empty_.Wait(mu_);
      stats_.blocked_pop_nanos += Book(slept, pop_blocked_us_);
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.Signal();
    return item;
  }

  /// Wakes all waiters; further pushes fail, pops drain remaining items.
  void Close() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.SignalAll();
    not_full_.SignalAll();
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  struct Stats {
    /// Pushes that slept on a full queue (back-pressure), counted when the
    /// sleep starts.
    uint64_t blocked_pushes = 0;
    /// Pops that slept on an empty queue (pipeline bubbles), likewise.
    uint64_t blocked_pops = 0;
    /// Wall time those sleeps cost, booked when each one ends.
    uint64_t blocked_push_nanos = 0;
    uint64_t blocked_pop_nanos = 0;
  };
  Stats stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  /// Returns the nanoseconds since `slept` started, recording them in
  /// `us` when set.
  static uint64_t Book(const Stopwatch& slept, LatencyHistogram* us) {
    const uint64_t nanos = slept.ElapsedNanos();
    if (us != nullptr) us->Add(nanos / 1000);
    return nanos;
  }

  const size_t capacity_;
  LatencyHistogram* const push_blocked_us_;
  LatencyHistogram* const pop_blocked_us_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace hyder

#endif  // HYDER2_COMMON_QUEUE_H_
