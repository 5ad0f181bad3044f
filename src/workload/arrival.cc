#include "workload/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace hyder {

std::vector<uint64_t> BuildArrivalSchedule(const ArrivalOptions& options) {
  std::vector<uint64_t> schedule;
  if (options.count == 0 || options.rate_tps <= 0) return schedule;
  schedule.reserve(options.count);
  const double mean_gap_nanos = 1e9 / options.rate_tps;
  Rng rng(options.seed);
  double t = 0;
  for (uint64_t i = 0; i < options.count; ++i) {
    // Exponential gap via inverse transform; clamp the uniform away from 0
    // so -log() stays finite.
    const double u = std::max(rng.NextDouble(), 1e-12);
    t += -std::log(u) * mean_gap_nanos;
    schedule.push_back(uint64_t(t));
  }
  return schedule;
}

}  // namespace hyder
