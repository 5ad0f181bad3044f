#include "meld/threaded_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <iterator>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "test_cluster.h"
#include "tree/validate.h"

namespace hyder {
namespace {

constexpr size_t kBlockSize = 1024;

/// Drives the threaded pipeline with a prepared block stream from this
/// thread, which melds, and collects its decisions and final state. Block
/// assembly hands the pipeline *raw* payloads (Feed): deserialization
/// happens in the premeld workers, and the decode sink registers each
/// decoded intention — the same wiring a server uses to populate its
/// intention cache off the poll thread.
class ThreadedHarness {
 public:
  explicit ThreadedHarness(const PipelineConfig& config)
      : pipeline_(
            config, DatabaseState{0, Ref::Null()}, &registry_,
            [this](const NodePtr& n) { registry_.Register(n); },
            [this](uint64_t, const IntentionPtr& intent) {
              // Register the view so logged references resolve lazily.
              registry_.RegisterIntention(intent);
            }) {}

  Status FeedBlocks(const std::vector<std::string>& blocks) {
    for (const std::string& b : blocks) {
      HYDER_ASSIGN_OR_RETURN(auto fed, assembler_.AddBlock(next_pos_++, b));
      auto& done = fed.completed;
      if (!done.has_value()) continue;
      HYDER_RETURN_IF_ERROR(pipeline_.Feed(std::move(*done), &decisions_));
    }
    return Status::OK();
  }

  Status Finish() { return pipeline_.Finish(&decisions_); }

  const std::vector<MeldDecision>& decisions() const { return decisions_; }

  ThreadedPipeline& pipeline() { return pipeline_; }
  MapRegistry& registry() { return registry_; }

 private:
  MapRegistry registry_;
  IntentionAssembler assembler_;
  uint64_t next_pos_ = 1;  ///< Log position of the next fed block.
  std::vector<MeldDecision> decisions_;
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
  ASSERT_TRUE(threaded.Finish().ok());

  // Decisions identical, in order.
  const std::vector<MeldDecision>& td = threaded.decisions();
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
    EXPECT_GT(threaded.pipeline().stats().premeld.nodes_visited, 0u);
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
  ASSERT_TRUE(threaded.Finish().ok());
  EXPECT_EQ(threaded.decisions().size(), sequential.decisions.size());
}

// Log order comes from the lanes, not from workers finishing in order: the
// worker of lane 0 (seq mod t == 0) lags about 1 ms on each of its
// intentions, so the others run ahead, and the caller must still meld the
// intentions in log order and decide exactly as the sequential engine.
TEST(ThreadedPipelineTest, LaggingPremeldWorkerKeepsLogOrder) {
  for (int threads : {2, 3}) {
    SCOPED_TRACE(threads);
    PipelineConfig config;
    config.premeld_threads = threads;
    config.premeld_distance = 2;
    config.group_meld = true;
    SequentialRun sequential(config);
    BuildWorkload(config, 40 + uint64_t(threads), 120, &sequential);

    // The kHandoff boundary fires on the caller as Meld takes each
    // intention, so `taken` is the meld stage's intake order.
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
    ASSERT_TRUE(threaded.Finish().ok());

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
    const std::vector<MeldDecision>& td = threaded.decisions();
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
    EXPECT_GT(threaded.pipeline().stats().handoff_blocked_pops, 0u);
  }
}

TEST(ThreadedPipelineTest, FeedRejectsOutOfOrder) {
  PipelineConfig config;
  ThreadedHarness threaded(config);
  IntentionAssembler::Completed raw;
  raw.seq = 5;  // Not 1.
  std::vector<MeldDecision> decisions;
  EXPECT_TRUE(
      threaded.pipeline().Feed(std::move(raw), &decisions).IsInvalidArgument());
  EXPECT_TRUE(threaded.Finish().ok());
}

TEST(ThreadedPipelineTest, CloseWithoutTrafficIsClean) {
  PipelineConfig config;
  config.premeld_threads = 3;
  ThreadedHarness threaded(config);
  EXPECT_TRUE(threaded.Finish().ok());
  EXPECT_TRUE(threaded.decisions().empty());
}

/// A stage probe that fails `stage` at sequence `seq` and passes the rest.
StageProbe FailAt(PipelineStage stage, uint64_t seq) {
  return [stage, seq](PipelineStage at, uint64_t at_seq) {
    if (at == stage && at_seq == seq) return Status::Unavailable("injected");
    return Status::OK();
  };
}

// A stage that fails on a worker hands its error down the lane in place of
// the intention: the caller returns it from Feed or Finish exactly at that
// sequence, after the decision of every earlier one, and keeps returning
// it. The failing sequence is mid-stream (Feed returns it) or the last one
// (Finish does).
TEST(ThreadedPipelineTest, WorkerErrorSurfacesAtItsSequence) {
  const std::pair<PipelineStage, int> kCases[] = {
      {PipelineStage::kDecode, 0},
      {PipelineStage::kDecode, 3},
      {PipelineStage::kPremeld, 2},
      {PipelineStage::kPremeld, 3},
  };
  for (const auto& [failing_stage, threads] : kCases) {
    SCOPED_TRACE(testing::Message() << int(failing_stage) << " t=" << threads);
    PipelineConfig config;
    config.premeld_threads = threads;
    config.premeld_distance = 2;
    SequentialRun sequential(config);
    BuildWorkload(config, 17, 80, &sequential);
    const uint64_t last = sequential.blocks.size();
    for (const uint64_t failing : {uint64_t(37), last}) {
      SCOPED_TRACE(failing);
      PipelineConfig probed = config;
      probed.stage_probe = FailAt(failing_stage, failing);
      ThreadedHarness threaded(probed);
      Status status = Status::OK();
      for (const auto& blocks : sequential.blocks) {
        status = threaded.FeedBlocks(blocks);
        if (!status.ok()) break;
      }
      if (status.ok()) status = threaded.Finish();
      ASSERT_TRUE(status.IsUnavailable()) << status.ToString();
      EXPECT_TRUE(threaded.Finish().IsUnavailable());

      // Without group meld, each sequence decides on its own: exactly the
      // decisions before the failing one, as the sequential engine made
      // them, and the states they published.
      const std::vector<MeldDecision>& td = threaded.decisions();
      ASSERT_EQ(td.size(), failing - 1);
      for (size_t i = 0; i < td.size(); ++i) {
        EXPECT_EQ(td[i].seq, sequential.decisions[i].seq) << i;
        EXPECT_EQ(td[i].committed, sequential.decisions[i].committed) << i;
        EXPECT_TRUE(td[i].abort == sequential.decisions[i].abort) << i;
      }
      EXPECT_EQ(threaded.pipeline().states().Latest().seq, failing - 1);
    }
  }
}

// Destroying the driver mid-stream stops and joins every worker. After an
// error the workers may be parked anywhere. At kHandoff the caller fails
// on sequence 22 while 21, its odd group partner, is buffered unpublished;
// intention 26 was fed in the same Feed, has a deep snapshot (every third
// of BuildWorkload's does) and premelds against state 21, so its worker
// waits in StateTable::WaitFor until the destructor wakes it.
TEST(ThreadedPipelineTest, DestroyAfterErrorJoinsWorkers) {
  for (const PipelineStage failing_stage :
       {PipelineStage::kDecode, PipelineStage::kHandoff}) {
    SCOPED_TRACE(int(failing_stage));
    PipelineConfig config;
    config.premeld_threads = 2;
    config.premeld_distance = 2;
    config.group_meld = true;
    SequentialRun sequential(config);
    BuildWorkload(config, 23, 80, &sequential);

    PipelineConfig probed = config;
    probed.stage_probe = FailAt(failing_stage, 22);
    auto threaded = std::make_unique<ThreadedHarness>(probed);
    Status status = Status::OK();
    for (const auto& blocks : sequential.blocks) {
      status = threaded->FeedBlocks(blocks);
      if (!status.ok()) break;
    }
    ASSERT_TRUE(status.IsUnavailable()) << status.ToString();
    // Give the workers time to reach whatever they block on.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    threaded.reset();
  }
}

// Destroying the driver with intentions still queued on the lanes does not
// wait for them: each worker finishes the intention in hand, finds its
// hand-off closed and exits.
TEST(ThreadedPipelineTest, DestroyWithQueuedIntentionsJoinsWorkers) {
  PipelineConfig config;
  config.premeld_threads = 2;
  config.premeld_distance = 10;
  SequentialRun sequential(config);
  BuildWorkload(config, 29, 60, &sequential);
  const uint64_t fed = sequential.blocks.size();
  const uint64_t depth = 20;  // t * d: what Feed leaves in flight.
  const uint64_t melded = fed - depth;

  // Decoding is slow past the intentions Feed has to meld, so they are
  // still queued when the driver is destroyed.
  std::atomic<uint64_t> decoded{0};
  PipelineConfig probed = config;
  probed.stage_probe = [&, melded](PipelineStage stage, uint64_t seq) {
    if (stage != PipelineStage::kDecode) return Status::OK();
    if (seq > melded) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    decoded.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
  auto threaded = std::make_unique<ThreadedHarness>(probed);
  for (const auto& blocks : sequential.blocks) {
    ASSERT_TRUE(threaded->FeedBlocks(blocks).ok());
  }
  EXPECT_EQ(threaded->decisions().size(), melded);
  ASSERT_LT(decoded.load(), fed);
  threaded.reset();
  EXPECT_LT(decoded.load(), fed);
}

// The lanes are sized to the window, so no push ever sleeps: not the
// caller's onto a lane's input (which could deadlock against a premeld
// waiting for a state only the caller publishes) and not a worker's onto
// its hand-off. Slow workers on some sequences and a slow caller on others
// push either side as far ahead as the window lets it.
TEST(ThreadedPipelineTest, NoPushEverSleeps) {
  const std::tuple<int, int, bool> kConfigs[] = {
      {0, 0, false},
      {0, 0, true},
      {1, 1, true},
      {2, 1, false},
      {2, 3, true},
      {3, 2, true},
      {5, 2, true},
      {5, 10, false},
  };
  for (size_t i = 0; i < std::size(kConfigs); ++i) {
    SCOPED_TRACE(i);
    const auto& [threads, distance, group] = kConfigs[i];
    PipelineConfig config;
    config.premeld_threads = threads;
    config.premeld_distance = distance;
    config.group_meld = group;
    SequentialRun sequential(config);
    BuildWorkload(config, 31, 120, &sequential);

    PipelineConfig probed = config;
    probed.stage_probe = [](PipelineStage stage, uint64_t seq) {
      const bool slow_worker = stage == PipelineStage::kDecode && seq % 7 == 0;
      const bool slow_caller = stage == PipelineStage::kHandoff && seq % 5 == 0;
      if (slow_worker || slow_caller) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      return Status::OK();
    };
    ThreadedHarness threaded(probed);
    for (const auto& blocks : sequential.blocks) {
      ASSERT_TRUE(threaded.FeedBlocks(blocks).ok());
    }
    ASSERT_TRUE(threaded.Finish().ok());
    EXPECT_EQ(threaded.decisions().size(), sequential.decisions.size());
    const PipelineStats stats = threaded.pipeline().stats();
    EXPECT_EQ(stats.handoff_blocked_pushes, 0u);
    EXPECT_EQ(stats.handoff_blocked_push_nanos, 0u);
  }
}

}  // namespace
}  // namespace hyder
