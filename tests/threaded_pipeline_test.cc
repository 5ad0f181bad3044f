#include "meld/threaded_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "test_cluster.h"
#include "tree/validate.h"

namespace hyder {
namespace {

constexpr size_t kBlockSize = 1024;

/// Drives the threaded pipeline with a prepared block stream and collects
/// its decisions and final state. Block assembly hands the pipeline *raw*
/// payloads (FeedRaw): deserialization happens in the premeld workers, and
/// the decode sink registers each decoded intention — the same wiring a
/// server uses to populate its intention cache off the poll thread.
class ThreadedHarness {
 public:
  explicit ThreadedHarness(const PipelineConfig& config)
      : pipeline_(
            config, DatabaseState{0, Ref::Null()}, &registry_,
            [this](const NodePtr& n) { registry_.Register(n); },
            [this](const MeldDecision& d) {
              MutexLock lock(mu_);
              decisions_.push_back(d);
            },
            [this](uint64_t, const IntentionPtr& intent) {
              // Register the view so logged references resolve lazily.
              registry_.RegisterIntention(intent);
            }) {
    pipeline_.Start();
  }

  Status FeedBlocks(const std::vector<std::string>& blocks) {
    for (const std::string& b : blocks) {
      HYDER_ASSIGN_OR_RETURN(auto fed, assembler_.AddBlock(b));
      auto& done = fed.completed;
      if (!done.has_value()) continue;
      HYDER_RETURN_IF_ERROR(pipeline_.FeedRaw(std::move(*done)));
    }
    return Status::OK();
  }

  void Finish() {
    pipeline_.Close();
    pipeline_.Join();
  }

  std::vector<MeldDecision> decisions() {
    MutexLock lock(mu_);
    return decisions_;
  }

  ThreadedPipeline& pipeline() { return pipeline_; }
  MapRegistry& registry() { return registry_; }

 private:
  MapRegistry registry_;
  IntentionAssembler assembler_;
  Mutex mu_;
  std::vector<MeldDecision> decisions_ GUARDED_BY(mu_);
  ThreadedPipeline pipeline_;
};

/// Builds a workload log using a sequential TestServer running `config`,
/// returning the block stream plus the sequential decisions and state.
struct SequentialRun {
  std::vector<std::vector<std::string>> blocks;
  std::vector<MeldDecision> decisions;
  TestServer server;

  explicit SequentialRun(const PipelineConfig& config) : server(config) {}
};

void BuildWorkload(const PipelineConfig& config, uint64_t seed, int txns,
                   SequentialRun* run) {
  // Genesis.
  IntentionBuilder g(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < 50; ++k) {
    ASSERT_TRUE(g.Put(k, "g" + std::to_string(k)).ok());
  }
  auto genesis = SerializeIntention(g, 1, kBlockSize);
  ASSERT_TRUE(genesis.ok());
  run->blocks.push_back(*genesis);
  auto d0 = run->server.FeedBlocks(*genesis);
  ASSERT_TRUE(d0.ok());
  run->decisions.insert(run->decisions.end(), d0->begin(), d0->end());

  Rng rng(seed);
  const uint64_t deep =
      uint64_t(config.premeld_threads) * uint64_t(config.premeld_distance) +
      2;
  for (int i = 0; i < txns; ++i) {
    uint64_t latest = run->server.Latest().seq;
    uint64_t span = (i % 3 == 0) ? deep + rng.Uniform(3) : rng.Uniform(4);
    uint64_t snap = latest > span ? latest - span : latest;
    auto st = run->server.StateAt(snap);
    ASSERT_TRUE(st.ok());
    IntentionBuilder b(kWorkspaceTagBit | (100 + i), snap, st->root,
                       IsolationLevel::kSerializable,
                       &run->server.registry());
    for (int o = 0; o < 4; ++o) {
      Key k = rng.Uniform(50);
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(b.Put(k, "v" + std::to_string(rng.Next() % 997)).ok());
      } else {
        ASSERT_TRUE(b.Get(k).ok());
      }
    }
    auto blocks = SerializeIntention(b, 100 + i, kBlockSize);
    ASSERT_TRUE(blocks.ok());
    run->blocks.push_back(*blocks);
    auto d = run->server.FeedBlocks(*blocks);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    run->decisions.insert(run->decisions.end(), d->begin(), d->end());
  }
  auto tail = run->server.Flush();
  ASSERT_TRUE(tail.ok());
  run->decisions.insert(run->decisions.end(), tail->begin(), tail->end());
}

class ThreadedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool, uint64_t>> {
};

TEST_P(ThreadedEquivalenceTest, MatchesSequentialBitForBit) {
  auto [threads, distance, group, seed] = GetParam();
  PipelineConfig config;
  config.premeld_threads = threads;
  config.premeld_distance = distance;
  config.group_meld = group;

  SequentialRun sequential(config);
  BuildWorkload(config, seed, 120, &sequential);

  ThreadedHarness threaded(config);
  for (const auto& blocks : sequential.blocks) {
    ASSERT_TRUE(threaded.FeedBlocks(blocks).ok());
  }
  threaded.Finish();
  ASSERT_TRUE(threaded.pipeline().FirstError().ok() ||
              threaded.pipeline().FirstError().message() ==
                  "pipeline closed");

  // Decisions identical, in order.
  std::vector<MeldDecision> td = threaded.decisions();
  ASSERT_EQ(td.size(), sequential.decisions.size());
  for (size_t i = 0; i < td.size(); ++i) {
    EXPECT_EQ(td[i].seq, sequential.decisions[i].seq) << i;
    EXPECT_EQ(td[i].txn_id, sequential.decisions[i].txn_id) << i;
    EXPECT_EQ(td[i].committed, sequential.decisions[i].committed)
        << "seq " << td[i].seq << ": " << td[i].reason() << " vs "
        << sequential.decisions[i].reason();
    // Same configuration, different engine: the typed provenance must be
    // bit-identical too (§3.4 extends to forensics).
    EXPECT_TRUE(td[i].abort == sequential.decisions[i].abort)
        << "seq " << td[i].seq << ": " << td[i].reason() << " vs "
        << sequential.decisions[i].reason();
  }

  // Final states physically identical (same ephemeral identities): the
  // §3.4 determinism property across engine implementations.
  DatabaseState st = threaded.pipeline().states().Latest();
  DatabaseState ss = sequential.server.Latest();
  ASSERT_EQ(st.seq, ss.seq);
  std::string diff;
  auto same = PhysicallyEqual(&threaded.registry(), st.root,
                              &sequential.server.registry(), ss.root, &diff);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same) << diff;

  // Premeld work happened on premeld threads when configured.
  if (threads > 0) {
    EXPECT_GT(threaded.pipeline().StatsSnapshot().premeld.nodes_visited, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ThreadedEquivalenceTest,
    ::testing::Values(std::make_tuple(0, 0, false, 1u),
                      std::make_tuple(1, 2, false, 2u),
                      std::make_tuple(3, 2, false, 3u),
                      std::make_tuple(5, 10, false, 4u),
                      std::make_tuple(0, 0, true, 5u),
                      std::make_tuple(2, 3, true, 6u),
                      std::make_tuple(5, 2, true, 7u)));

TEST(ThreadedPipelineTest, BackpressureDoesNotDeadlock) {
  PipelineConfig config;
  config.premeld_threads = 2;
  config.premeld_distance = 1;
  SequentialRun sequential(config);
  BuildWorkload(config, 99, 400, &sequential);

  ThreadedHarness threaded(config);
  for (const auto& blocks : sequential.blocks) {
    ASSERT_TRUE(threaded.FeedBlocks(blocks).ok());
  }
  threaded.Finish();
  EXPECT_EQ(threaded.decisions().size(), sequential.decisions.size());
}

// Log order comes from the lanes, not from workers finishing in order: the
// worker of lane 0 (seq mod t == 0) lags about 1 ms on each of its
// intentions, so the others run ahead, and the meld thread must still take
// the intentions in log order and decide exactly as the sequential engine.
TEST(ThreadedPipelineTest, LaggingPremeldWorkerKeepsLogOrder) {
  for (int threads : {2, 3}) {
    SCOPED_TRACE(threads);
    PipelineConfig config;
    config.premeld_threads = threads;
    config.premeld_distance = 2;
    config.group_meld = true;
    SequentialRun sequential(config);
    BuildWorkload(config, 40 + uint64_t(threads), 120, &sequential);

    // The kHandoff boundary fires on the meld thread as Meld takes each
    // intention, so `taken` is the meld thread's intake order.
    Mutex mu;
    std::vector<uint64_t> taken;  // Guarded by mu.
    config.stage_probe = [&, threads](PipelineStage stage, uint64_t seq) {
      if (stage == PipelineStage::kPremeld && seq % uint64_t(threads) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stage == PipelineStage::kHandoff) {
        MutexLock lock(mu);
        taken.push_back(seq);
      }
      return Status::OK();
    };
    ThreadedHarness threaded(config);
    for (const auto& blocks : sequential.blocks) {
      ASSERT_TRUE(threaded.FeedBlocks(blocks).ok());
    }
    threaded.Finish();
    ASSERT_EQ(threaded.pipeline().FirstError().message(), "pipeline closed");

    {
      MutexLock lock(mu);
      ASSERT_EQ(taken.size(), sequential.blocks.size());
      for (size_t i = 0; i < taken.size(); ++i) {
        ASSERT_EQ(taken[i], i + 1) << "meld thread took seq " << taken[i]
                                   << " out of log order";
      }
    }
    // A pair whose later member aborts inside the pair decides that member
    // first, on both engines, so decision order is compared, not sorted.
    std::vector<MeldDecision> td = threaded.decisions();
    ASSERT_EQ(td.size(), sequential.decisions.size());
    for (size_t i = 0; i < td.size(); ++i) {
      EXPECT_EQ(td[i].seq, sequential.decisions[i].seq) << i;
      EXPECT_EQ(td[i].txn_id, sequential.decisions[i].txn_id) << i;
      EXPECT_EQ(td[i].committed, sequential.decisions[i].committed) << i;
      EXPECT_TRUE(td[i].abort == sequential.decisions[i].abort)
          << "seq " << td[i].seq << ": " << td[i].reason() << " vs "
          << sequential.decisions[i].reason();
    }
    std::string diff;
    auto same = PhysicallyEqual(
        &threaded.registry(), threaded.pipeline().states().Latest().root,
        &sequential.server.registry(), sequential.server.Latest().root,
        &diff);
    ASSERT_TRUE(same.ok()) << same.status().ToString();
    EXPECT_TRUE(*same) << diff;
    EXPECT_GT(threaded.pipeline().StatsSnapshot().handoff_blocked_pops, 0u);
  }
}

// StatsSnapshot() taken mid-run reports only the atomically mirrored
// headline counters, and its read ordering (decisions first, intentions
// last) pairs with the meld worker's write ordering so an observer can
// never see more decisions than intentions — a snapshot claiming
// committed + aborted > intentions would describe decisions for work that
// was never fed. Hammer snapshots from a second thread for the whole run.
TEST(ThreadedPipelineTest, MidRunSnapshotNeverOvercountsDecisions) {
  PipelineConfig config;
  config.premeld_threads = 2;
  config.premeld_distance = 2;
  SequentialRun sequential(config);
  BuildWorkload(config, 11, 400, &sequential);

  ThreadedHarness threaded(config);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots{0};
  std::atomic<uint64_t> violations{0};
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      const PipelineStats s = threaded.pipeline().StatsSnapshot();
      snapshots.fetch_add(1, std::memory_order_relaxed);
      if (s.committed + s.aborted > s.intentions) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (const auto& blocks : sequential.blocks) {
    ASSERT_TRUE(threaded.FeedBlocks(blocks).ok());
  }
  threaded.Finish();
  done.store(true, std::memory_order_release);
  observer.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(snapshots.load(), 0u);

  // Post-Join the full merged stats are available and exact: every fed
  // intention has exactly one decision.
  const PipelineStats final_stats = threaded.pipeline().StatsSnapshot();
  EXPECT_EQ(final_stats.intentions, sequential.blocks.size());
  EXPECT_EQ(final_stats.committed + final_stats.aborted,
            final_stats.intentions);
  EXPECT_EQ(threaded.decisions().size(), sequential.decisions.size());
}

TEST(ThreadedPipelineTest, FeedRejectsOutOfOrder) {
  PipelineConfig config;
  ThreadedHarness threaded(config);
  IntentionAssembler::Completed raw;
  raw.seq = 5;  // Not 1.
  EXPECT_TRUE(threaded.pipeline().FeedRaw(std::move(raw)).IsInvalidArgument());
  threaded.Finish();
}

TEST(ThreadedPipelineTest, CloseWithoutTrafficIsClean) {
  PipelineConfig config;
  config.premeld_threads = 3;
  ThreadedHarness threaded(config);
  threaded.Finish();
  EXPECT_TRUE(threaded.decisions().empty());
}

}  // namespace
}  // namespace hyder
