#ifndef HYDER2_LOG_CORFU_SIM_H_
#define HYDER2_LOG_CORFU_SIM_H_

#include <cstdint>

#include "common/histogram.h"

namespace hyder {

/// Parameters of the CORFU log-service performance model (§5.1, §6.3).
///
/// The model is a closed-loop discrete-event simulation: each client thread
/// repeatedly (1) obtains the next position from the sequencer (a single
/// FIFO server), (2) ships the block over the network to the storage unit
/// that owns the position (round-robin striping), (3) waits for the unit (a
/// FIFO server per unit, service time = SSD page write) to persist it.
/// Saturation throughput is units / unit_service; latency percentiles grow
/// with queueing as the offered load approaches it — the two behaviours
/// Fig. 9 plots.
struct CorfuSimOptions {
  int storage_units = 6;
  uint64_t unit_service_ns = 42'000;   ///< SSD write of one 8K block.
  uint64_t sequencer_service_ns = 1'500;
  uint64_t network_oneway_ns = 50'000;  ///< Client <-> service one-way.
  int clients = 1;
  int threads_per_client = 20;
  uint64_t duration_ns = 2'000'000'000;  ///< Simulated run length.
  uint64_t warmup_ns = 200'000'000;      ///< Excluded from statistics.
};

/// Results of one simulated run.
struct CorfuSimResult {
  double appends_per_sec = 0;
  Histogram latency_us;  ///< Per-append latency in microseconds.
};

/// Runs the closed-loop append simulation to completion (virtual time).
CorfuSimResult SimulateCorfuAppends(const CorfuSimOptions& options);

}  // namespace hyder

#endif  // HYDER2_LOG_CORFU_SIM_H_
