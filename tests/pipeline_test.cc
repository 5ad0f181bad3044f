#include "meld/pipeline.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"
#include "meld/state_table.h"
#include "test_cluster.h"
#include "tree/validate.h"

namespace hyder {
namespace {

// ---------------------------------------------------------------------------
// StateTable.
// ---------------------------------------------------------------------------

DatabaseState S(uint64_t seq) { return DatabaseState{seq, Ref::Null()}; }

TEST(StateTableTest, PublishAndGet) {
  StateTable table(8, S(0));
  table.Publish(S(1));
  table.Publish(S(2));
  EXPECT_EQ(table.Latest().seq, 2u);
  EXPECT_EQ(table.Get(1)->seq, 1u);
  EXPECT_EQ(table.Get(0)->seq, 0u);
  EXPECT_TRUE(table.Get(3).status().IsNotFound());
}

TEST(StateTableTest, RetiresBeyondCapacity) {
  StateTable table(3, S(0));
  for (uint64_t i = 1; i <= 10; ++i) table.Publish(S(i));
  EXPECT_EQ(table.OldestRetained(), 8u);
  EXPECT_TRUE(table.Get(7).status().IsSnapshotTooOld());
  EXPECT_EQ(table.Get(9)->seq, 9u);
}

TEST(StateTableTest, WaitForBlocksUntilPublished) {
  StateTable table(8, S(0));
  std::thread publisher([&] {
    for (uint64_t i = 1; i <= 5; ++i) table.Publish(S(i));
  });
  auto got = table.WaitFor(5);
  publisher.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->seq, 5u);
}

TEST(StateTableTest, ShutdownWakesWaiters) {
  StateTable table(8, S(0));
  std::thread waiter([&] {
    auto got = table.WaitFor(100);
    EXPECT_TRUE(got.status().IsTimedOut());
  });
  table.Shutdown();
  waiter.join();
}

TEST(StateTableTest, WaitForRetiredStateFails) {
  StateTable table(2, S(0));
  for (uint64_t i = 1; i <= 6; ++i) table.Publish(S(i));
  EXPECT_TRUE(table.WaitFor(1).status().IsSnapshotTooOld());
}

// ---------------------------------------------------------------------------
// Pipeline behaviours beyond the meld_test coverage.
// ---------------------------------------------------------------------------

constexpr size_t kBlockSize = 1024;

void Seed(TestServer& server, std::vector<std::string>* blocks_out = nullptr,
          int keys = 20) {
  IntentionBuilder b(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < Key(keys); ++k) {
    ASSERT_TRUE(b.Put(k, "g").ok());
  }
  auto blocks = SerializeIntention(b, 1, kBlockSize);
  ASSERT_TRUE(blocks.ok());
  if (blocks_out) *blocks_out = *blocks;
  ASSERT_TRUE(server.FeedBlocks(*blocks).ok());
}

TEST(PipelineTest, RejectsNonConsecutiveSequences) {
  TestServer server;
  auto intent = std::make_shared<Intention>();
  intent->seq = 7;
  auto r = server.pipeline().Process(intent);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

/// Feeds a one-write intention straight to the engine with sequence `seq`,
/// past the assembler (whose exact duplicate filter would otherwise drop a
/// repeated transaction id), so the engine's own backstop answers.
Result<std::vector<MeldDecision>> FeedTxn(TestServer& server, uint64_t seq,
                                          uint64_t txn_id) {
  IntentionBuilder b(kWorkspaceTagBit | txn_id, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  HYDER_RETURN_IF_ERROR(b.Put(Key(seq), "v"));
  HYDER_ASSIGN_OR_RETURN(std::vector<std::string> blocks,
                         SerializeIntention(b, txn_id, kBlockSize));
  IntentionAssembler assembler(seq);
  for (const std::string& block : blocks) {
    HYDER_ASSIGN_OR_RETURN(auto fed, assembler.AddBlock(/*pos=*/0, block));
    if (!fed.completed.has_value()) continue;
    HYDER_ASSIGN_OR_RETURN(
        IntentionPtr intent,
        server.pipeline().Decode(*fed.completed,
                                 server.pipeline().mutable_stats()));
    server.registry().RegisterIntention(intent);
    return server.pipeline().Process(intent);
  }
  return Status::Internal("intention never completed");
}

TEST(PipelineTest, RepeatedTxnIdIsInternal) {
  TestServer server;
  const uint64_t origin1 = MakeTxnId(0, 0);
  const uint64_t origin2 = MakeTxnId(1, 0);
  ASSERT_TRUE(FeedTxn(server, 1, origin1 | 1).ok());
  ASSERT_TRUE(FeedTxn(server, 2, origin1 | 3).ok());
  // A transaction begun earlier may commit later: a lower id is fine.
  ASSERT_TRUE(FeedTxn(server, 3, origin1 | 2).ok());
  // The same local sequence from another origin is another transaction.
  ASSERT_TRUE(FeedTxn(server, 4, origin2 | 3).ok());
  // A repeat of the origin's highest id, or of any id below it, is not.
  for (uint64_t id : {origin1 | 3, origin1 | 2, origin1 | 1, origin2 | 3}) {
    auto again = FeedTxn(server, 5, id);
    EXPECT_TRUE(again.status().IsInternal()) << id << ": "
                                             << again.status().ToString();
  }
  ASSERT_TRUE(FeedTxn(server, 5, origin1 | 4).ok());
}

TEST(PipelineTest, BlockPrefixTracksCumulativeBlocks) {
  TestServer server;
  Seed(server, nullptr, 50);
  EXPECT_EQ(server.pipeline().BlocksUpTo(0), 0u);
  const uint64_t genesis_blocks = server.pipeline().BlocksUpTo(1);
  EXPECT_GT(genesis_blocks, 0u);
  auto st = server.StateAt(1);
  ASSERT_TRUE(st.ok());
  IntentionBuilder b(kWorkspaceTagBit | 2, 1, st->root,
                     IsolationLevel::kSerializable, &server.registry());
  ASSERT_TRUE(b.Put(3, "x").ok());
  auto blocks = SerializeIntention(b, 2, kBlockSize);
  ASSERT_TRUE(blocks.ok());
  ASSERT_TRUE(server.FeedBlocks(*blocks).ok());
  EXPECT_EQ(server.pipeline().BlocksUpTo(2), genesis_blocks + blocks->size());
}

TEST(PipelineTest, StatePerAbortedIntentionIsUnchanged) {
  TestServer server;
  Seed(server);
  auto exec = [&](uint64_t snap, uint64_t id, Key k, const char* v) {
    auto st = server.StateAt(snap);
    IntentionBuilder b(kWorkspaceTagBit | id, snap, st->root,
                       IsolationLevel::kSerializable, &server.registry());
    EXPECT_TRUE(b.Put(k, v).ok());
    auto blocks = SerializeIntention(b, id, kBlockSize);
    auto d = server.FeedBlocks(*blocks);
    ASSERT_TRUE(d.ok());
  };
  exec(1, 2, 5, "winner");   // seq 2 commits.
  exec(1, 3, 5, "loser");    // seq 3 aborts.
  auto s2 = server.StateAt(2);
  auto s3 = server.StateAt(3);
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s2->root.node.get(), s3->root.node.get())
      << "an aborted intention's state must alias the previous state";
}

TEST(PipelineTest, GroupFlushHandlesTrailingSingleton) {
  PipelineConfig config;
  config.group_meld = true;
  TestServer server(config);
  std::vector<std::string> genesis;
  Seed(server, &genesis);
  // Genesis is buffered; flush decides it alone.
  auto tail = server.Flush();
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_TRUE((*tail)[0].committed);
  EXPECT_EQ(server.Latest().seq, 1u);
}

TEST(PipelineTest, StateRetentionBoundIsRespected) {
  PipelineConfig config;
  config.state_retention = 16;
  TestServer server(config);
  Seed(server);
  for (int i = 0; i < 64; ++i) {
    uint64_t latest = server.Latest().seq;
    auto st = server.StateAt(latest);
    ASSERT_TRUE(st.ok());
    IntentionBuilder b(kWorkspaceTagBit | (100 + i), latest, st->root,
                       IsolationLevel::kSerializable, &server.registry());
    ASSERT_TRUE(b.Put(Key(i % 20), "v").ok());
    auto blocks = SerializeIntention(b, 100 + i, kBlockSize);
    ASSERT_TRUE(server.FeedBlocks(*blocks).ok());
  }
  EXPECT_TRUE(server.StateAt(2).status().IsSnapshotTooOld());
  EXPECT_TRUE(server.StateAt(server.Latest().seq).ok());
}

// ---------------------------------------------------------------------------
// Appendix C: why premeld must use the deterministic (t*d) input rule.
// The paper's example shows two servers premelding the same intention
// against *different* states, producing ephemeral nodes whose identities
// collide but whose contents differ — after which the servers diverge.
// We demonstrate the failure mode by running two servers with different
// premeld distances (an illegal mixed configuration) and showing their
// states are NOT physically identical, while the legal identical
// configuration converges. This is exactly the §3.4 requirement.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::string>> BuildConcurrentLog(
    TestServer& exec, int txns, uint64_t seed) {
  std::vector<std::vector<std::string>> log;
  Rng rng(seed);
  for (int i = 0; i < txns; ++i) {
    uint64_t latest = exec.Latest().seq;
    uint64_t span = 4 + rng.Uniform(6);
    uint64_t snap = latest > span ? latest - span : 1;
    auto st = exec.StateAt(snap);
    EXPECT_TRUE(st.ok());
    IntentionBuilder b(kWorkspaceTagBit | (50 + i), snap, st->root,
                       IsolationLevel::kSnapshot, &exec.registry());
    EXPECT_TRUE(b.Put(rng.Uniform(20), "v" + std::to_string(i)).ok());
    auto blocks = SerializeIntention(b, 50 + i, kBlockSize);
    EXPECT_TRUE(blocks.ok());
    log.push_back(*blocks);
    EXPECT_TRUE(exec.FeedBlocks(*blocks).ok());
  }
  return log;
}

TEST(AppendixCTest, MixedPremeldConfigurationsDiverge) {
  PipelineConfig exec_config;
  exec_config.premeld_threads = 2;
  exec_config.premeld_distance = 2;
  TestServer exec(exec_config);
  std::vector<std::string> genesis;
  Seed(exec, &genesis);
  auto log = BuildConcurrentLog(exec, 40, 99);

  // Legal: same configuration -> physically identical.
  {
    TestServer a(exec_config), b(exec_config);
    ASSERT_TRUE(a.FeedBlocks(genesis).ok());
    ASSERT_TRUE(b.FeedBlocks(genesis).ok());
    for (auto& blocks : log) {
      ASSERT_TRUE(a.FeedBlocks(blocks).ok());
      ASSERT_TRUE(b.FeedBlocks(blocks).ok());
    }
    std::string diff;
    auto same = PhysicallyEqual(&a.registry(), a.Latest().root,
                                &b.registry(), b.Latest().root, &diff);
    ASSERT_TRUE(same.ok()) << same.status().ToString();
    EXPECT_TRUE(*same) << diff;
  }

  // Illegal: different premeld distances -> the same two-part ephemeral
  // identities are generated for different content, so the replicas'
  // states are NOT physically identical (Appendix C's divergence).
  {
    PipelineConfig other = exec_config;
    other.premeld_distance = 5;
    TestServer a(exec_config), b(other);
    ASSERT_TRUE(a.FeedBlocks(genesis).ok());
    ASSERT_TRUE(b.FeedBlocks(genesis).ok());
    bool diverged = false;
    for (auto& blocks : log) {
      ASSERT_TRUE(a.FeedBlocks(blocks).ok());
      auto rb = b.FeedBlocks(blocks);
      if (!rb.ok()) {
        diverged = true;  // Unresolvable ephemeral: divergence surfaced.
        break;
      }
    }
    if (!diverged) {
      std::string diff;
      // An unresolvable ephemeral surfaces the divergence as an error.
      diverged = !PhysicallyEqual(&a.registry(), a.Latest().root,
                                  &b.registry(), b.Latest().root, &diff)
                      .value_or(false);
    }
    EXPECT_TRUE(diverged)
        << "mixed premeld configurations must diverge (Appendix C)";
  }
}

TEST(PipelineTest, PremeldSkipCounting) {
  PipelineConfig config;
  config.premeld_threads = 2;
  config.premeld_distance = 50;  // Targets far behind: everything skips.
  TestServer server(config);
  Seed(server);
  for (int i = 0; i < 10; ++i) {
    uint64_t latest = server.Latest().seq;
    auto st = server.StateAt(latest);
    IntentionBuilder b(kWorkspaceTagBit | (10 + i), latest, st->root,
                       IsolationLevel::kSerializable, &server.registry());
    ASSERT_TRUE(b.Put(Key(i), "x").ok());
    auto blocks = SerializeIntention(b, 10 + i, kBlockSize);
    ASSERT_TRUE(server.FeedBlocks(*blocks).ok());
  }
  // 11 skips: the genesis intention itself also has no premeld zone.
  EXPECT_EQ(server.pipeline().stats().premeld_skips, 11u);
  EXPECT_EQ(server.pipeline().stats().premeld.nodes_visited, 0u);
}

TEST(MetricsTest, PipelineStatsAggregation) {
  PipelineStats a, b;
  a.intentions = 3;
  a.committed = 2;
  a.final_meld.nodes_visited = 10;
  b.intentions = 4;
  b.committed = 4;
  b.final_meld.nodes_visited = 5;
  a += b;
  EXPECT_EQ(a.intentions, 7u);
  EXPECT_EQ(a.committed, 6u);
  EXPECT_EQ(a.final_meld.nodes_visited, 15u);
  EXPECT_FALSE(a.ToString().empty());
}

TEST(MetricsTest, MeldWorkToString) {
  MeldWork w;
  w.nodes_visited = 42;
  w.cpu_nanos = 1500;
  std::string s = w.ToString();
  EXPECT_NE(s.find("visited=42"), std::string::npos);
}

}  // namespace
}  // namespace hyder
