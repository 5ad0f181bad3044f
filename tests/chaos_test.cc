// Seeded chaos: kills, restarts, checkpoint crashes, truncation racing
// catch-up, stage-probe faults and log-level storage decay — all from one
// deterministic schedule per seed (DESIGN.md "Log truncation & catch-up").
//
// Every seed must end with all servers byte-identical (§3.4) over a log
// whose reclaimed prefix is actually gone. On failure the global metrics
// snapshot is written to $HYDER_CHAOS_METRICS_OUT (CI uploads it).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/registry.h"
#include "server/chaos.h"

namespace hyder {
namespace {

// Dumps the registry (driver + per-server + log providers are still live
// while the driver is in scope) so a failing seed leaves evidence behind.
void DumpMetricsOnFailure(uint64_t seed) {
  const char* path = std::getenv("HYDER_CHAOS_METRICS_OUT");
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  const std::string json = MetricsRegistry::Global().ToJson();
  std::fprintf(f, "{\"failed_seed\": %llu, \"metrics\": %s}\n",
               static_cast<unsigned long long>(seed), json.c_str());
  std::fclose(f);
}

void CheckSeed(uint64_t seed, ChaosReport* aggregate) {
  ChaosDriver driver(MakeChaosOptions(seed));
  Result<ChaosReport> run = driver.Run();
  if (!run.ok()) {
    DumpMetricsOnFailure(seed);
    FAIL() << "seed " << seed << ": " << run.status().ToString();
  }
  const ChaosReport& r = *run;
  EXPECT_TRUE(r.converged) << "seed " << seed << " diverged: " << r.diff;
  EXPECT_GT(r.txns_committed, 0u) << "seed " << seed;
  // The epilogue always lands a final checkpoint + truncation, so every
  // seed ends with a reclaimed prefix...
  EXPECT_GT(r.final_low_water, 1u) << "seed " << seed;
  EXPECT_GT(r.blocks_reclaimed, 0u) << "seed " << seed;
  // ...and the log's resident bytes are bounded by the live suffix: the
  // prefix must be physically reclaimed, not merely fenced off.
  ASSERT_GT(r.final_tail, r.final_low_water) << "seed " << seed;
  const uint64_t live_blocks = r.final_tail - r.final_low_water;
  EXPECT_LE(r.retained_bytes,
            live_blocks * driver.base_log().block_size())
      << "seed " << seed << ": truncated prefix still resident";
  EXPECT_EQ(r.retained_bytes, driver.base_log().RetainedBytes())
      << "seed " << seed;

  if (::testing::Test::HasFailure()) DumpMetricsOnFailure(seed);

  aggregate->txns_committed += r.txns_committed;
  aggregate->kills += r.kills;
  aggregate->rejoins += r.rejoins;
  aggregate->restarts += r.restarts;
  aggregate->catchup_restarts += r.catchup_restarts;
  aggregate->stage_crashes += r.stage_crashes;
  aggregate->stage_stalls += r.stage_stalls;
  aggregate->append_crashes += r.append_crashes;
  aggregate->mid_checkpoint_crashes += r.mid_checkpoint_crashes;
  aggregate->checkpoints_written += r.checkpoints_written;
  aggregate->checkpoint_failures += r.checkpoint_failures;
  aggregate->truncations += r.truncations;
  aggregate->truncation_busy += r.truncation_busy;
  aggregate->catching_up_rejections += r.catching_up_rejections;
  aggregate->duplicate_blocks += r.duplicate_blocks;
}

TEST(ChaosTest, SingleSeedSmoke) {
  ChaosReport aggregate;
  CheckSeed(42, &aggregate);
}

// The seed window defaults to 1..100 and can be re-based/sharded from the
// environment (CI fans the matrix out across jobs without recompiling).
uint64_t EnvSeed(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

TEST(ChaosTest, ConvergesAcross100Seeds) {
  const uint64_t base = EnvSeed("HYDER_CHAOS_SEED_BASE", 1);
  const uint64_t count = EnvSeed("HYDER_CHAOS_SEED_COUNT", 100);
  ChaosReport aggregate;
  for (uint64_t seed = base; seed < base + count; ++seed) {
    CheckSeed(seed, &aggregate);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at first failing seed " << seed;
    }
  }
  // Any single seed may roll few faults; across the matrix every chaos
  // lever must actually have fired, or the harness is quietly testing the
  // happy path.
  EXPECT_GT(aggregate.kills, 0u);
  EXPECT_GT(aggregate.rejoins, 0u);
  EXPECT_GT(aggregate.restarts, 0u);
  EXPECT_GT(aggregate.stage_crashes, 0u);
  EXPECT_GT(aggregate.stage_stalls, 0u);
  EXPECT_GT(aggregate.mid_checkpoint_crashes, 0u);
  EXPECT_GT(aggregate.truncations, count);  // Epilogue alone: one per seed.
  EXPECT_GT(aggregate.catching_up_rejections, 0u)
      << "no catching-up server was ever offered a transaction";
  EXPECT_GT(aggregate.duplicate_blocks, 0u)
      << "no retried-append copy ever reached a final server's assembler";
}

}  // namespace
}  // namespace hyder
