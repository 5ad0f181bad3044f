#ifndef HYDER2_WORKLOAD_ARRIVAL_H_
#define HYDER2_WORKLOAD_ARRIVAL_H_

#include <cstdint>
#include <vector>

namespace hyder {

/// Parameters of an open-loop arrival schedule (§6-style load generation,
/// but paced by intended arrival times instead of a closed in-flight
/// window): a Poisson process, whose exponential inter-arrival gaps are the
/// standard open-loop model (bursts happen, like real clients). The
/// schedule is precomputed so a run's offered load is a pure
/// function of (rate, count, seed) — independent of how fast the
/// system under test happens to drain it. That independence is what makes
/// the measured latencies coordinated-omission-safe: a slow decision delays
/// the *measurement*, never the *workload*.
struct ArrivalOptions {
  /// Offered load in transactions per second.
  double rate_tps = 1000.0;
  /// Number of arrivals in the schedule.
  uint64_t count = 1000;
  /// Seed for the exponential inter-arrival gaps.
  uint64_t seed = 42;
};

/// Builds the intended-start schedule: `count` non-decreasing nanosecond
/// offsets from the run's start. Deterministic for fixed options.
std::vector<uint64_t> BuildArrivalSchedule(const ArrivalOptions& options);

}  // namespace hyder

#endif  // HYDER2_WORKLOAD_ARRIVAL_H_
