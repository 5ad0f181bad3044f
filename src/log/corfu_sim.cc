#include "log/corfu_sim.h"

#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"

namespace hyder {

namespace {

/// A single FIFO server: queueing is captured arithmetically by tracking
/// when the server frees up.
struct FifoServer {
  uint64_t busy_until = 0;

  /// Enqueues a job arriving at `at`; returns its completion time.
  uint64_t Serve(uint64_t at, uint64_t service) {
    const uint64_t start = at > busy_until ? at : busy_until;
    busy_until = start + service;
    return busy_until;
  }
};

}  // namespace

CorfuSimResult SimulateCorfuAppends(const CorfuSimOptions& options) {
  SimClock clock;
  FifoServer sequencer;
  std::vector<FifoServer> units(options.storage_units);
  uint64_t next_position = 0;
  CorfuSimResult result;
  uint64_t completed = 0;

  const int total_threads = options.clients * options.threads_per_client;
  const uint64_t end = options.duration_ns;

  // One closed loop per client thread: issue, wait for completion, repeat.
  std::function<void(uint64_t)> issue = [&](uint64_t start) {
    if (start >= end) return;
    // Token grant from the sequencer (one network round trip).
    const uint64_t at_sequencer = start + options.network_oneway_ns;
    const uint64_t token_done =
        sequencer.Serve(at_sequencer, options.sequencer_service_ns);
    const uint64_t position = next_position++;
    FifoServer& unit = units[position % units.size()];
    // Block shipped to the owning storage unit; one-way from the client, so
    // the sequencer->client->unit path costs two one-way hops after grant.
    const uint64_t at_unit = token_done + 2 * options.network_oneway_ns;
    // SSD page writes are not perfectly uniform: apply a deterministic
    // +/-25% service-time spread (hashed from the position) so latency
    // percentiles behave like a real device's.
    const uint64_t service =
        options.unit_service_ns * (75 + Mix64(position) % 51) / 100;
    const uint64_t persisted = unit.Serve(at_unit, service);
    const uint64_t done = persisted + options.network_oneway_ns;
    clock.ScheduleAt(done, [&, start, done] {
      if (done > options.warmup_ns) {
        result.latency_us.Add((done - start) / 1000);
        completed++;
      }
      issue(done);
    });
  };

  for (int t = 0; t < total_threads; ++t) issue(0);
  clock.RunUntil(end);

  const double measured_secs =
      double(end - options.warmup_ns) / 1e9;
  result.appends_per_sec = double(completed) / measured_secs;
  return result;
}

}  // namespace hyder
