#include "meld/pipeline.h"

#include <gtest/gtest.h>
#include <malloc.h>

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

TEST(PipelineTest, BlockPrefixKeepsOnlyTheRetentionWindow) {
  // A long run: 100k one-block intentions that premeld already aborted, so
  // no state changes and only the engine's per-sequence bookkeeping could
  // grow. It keeps the block counts of the last `state_retention`
  // sequences, so its heap stays flat.
  constexpr uint64_t kIntentions = 100'000;
  constexpr uint64_t kRetention = 64;
  PipelineConfig config;
  config.state_retention = kRetention;
  SequentialPipeline pipeline(config, DatabaseState{0, Ref::Null()},
                              /*resolver=*/nullptr, /*eph_registrar=*/nullptr);
  // Large blocks are mmapped and counted apart from the arena's.
  auto heap_in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return int64_t(mi.uordblks + mi.hblkhd);
  };
  const int64_t before = heap_in_use();
  for (uint64_t seq = 1; seq <= kIntentions; ++seq) {
    auto intent = std::make_shared<Intention>();
    intent->seq = seq;
    intent->txn_id = MakeTxnId(/*server_id=*/0, seq);
    intent->known_aborted = true;
    intent->abort_info.cause = AbortCause::kAbortPremeldKill;
    intent->members = {{seq, intent->txn_id}};
    auto decided = pipeline.Process(intent);
    ASSERT_TRUE(decided.ok()) << decided.status().ToString();
    ASSERT_EQ(decided->size(), 1u);
  }
  const int64_t grown = heap_in_use() - before;
  EXPECT_LT(grown, 256 << 10) << "heap grew " << grown << " bytes";
  EXPECT_EQ(pipeline.BlocksUpTo(kIntentions), kIntentions);
  EXPECT_EQ(pipeline.BlocksUpTo(kIntentions - 10), kIntentions - 10);
  // A sequence older than the window counts from its oldest entry.
  const uint64_t oldest = kIntentions - kRetention + 1;
  EXPECT_EQ(pipeline.BlocksUpTo(oldest), oldest);
  EXPECT_EQ(pipeline.BlocksUpTo(1), oldest);
}

/// Resolves `L[1,k]` to a fresh node with key k and keeps none, as a
/// refetch from the log does once its view is evicted: the slot that
/// memoizes the node is its only owner. The ids form a complete search
/// tree over keys 1..127 rooted at 64; node k's children are k -/+ half
/// its lowest set bit, and odd keys are leaves.
class FreshResolver : public NodeResolver {
 public:
  static std::string PayloadOf(Key k) {
    // Above the inline cap: a node read after its slot was freed also
    // reads a freed heap buffer.
    return std::string(kNodeInlinePayloadCap + 8, char('a' + k % 26));
  }

  Result<NodePtr> Resolve(VersionId vn) override {
    ++calls;
    const Key k = vn.node_index();
    NodePtr n = MakeNode(k, PayloadOf(k));
    n->set_vn(vn);
    n->set_cv(vn);
    n->set_color(Color::kBlack);
    if (const Key half = (k & -k) / 2; half > 0) {
      n->left().Rewire(Ref::Lazy(VersionId::Logged(1, uint32_t(k - half))));
      n->right().Rewire(Ref::Lazy(VersionId::Logged(1, uint32_t(k + half))));
    }
    return n;
  }

  int calls = 0;
};

TEST(PipelineTest, BorrowedWalksNeedOnlyTheCallersRoot) {
  // A tree whose only owner is the caller's root: the one state that
  // shared it has been retired. Walks borrow every node below the root,
  // and each lazy edge they cross is memoized into a slot of a node that
  // root owns. The pool poisons free slots under ASan, so a walk that kept
  // a node nothing owned fails there.
  const uint64_t live_before = LiveNodeCount();
  FreshResolver resolver;
  Ref mine;
  {
    StateTable states(2, DatabaseState{0, Ref::Null()});
    auto root = resolver.Resolve(VersionId::Logged(1, 64));
    ASSERT_TRUE(root.ok());
    states.Publish(DatabaseState{1, Ref::To(*root)});
    mine = states.Get(1)->root;
    states.Publish(DatabaseState{2, Ref::Null()});
    states.Publish(DatabaseState{3, Ref::Null()});
    ASSERT_TRUE(states.Get(1).status().IsSnapshotTooOld());
  }
  ASSERT_EQ(mine.node->RefCount(), 1u);
  resolver.calls = 0;

  // Unannotated: 64 -> 32 -> 16 -> 24 -> 20 -> 22 -> 21, six lazy edges.
  CowContext read;
  read.owner = kWorkspaceTagBit | 1;
  read.resolver = &resolver;
  std::optional<std::string> payload;
  {
    auto same = TreeLookup(read, mine, 21, &payload);
    ASSERT_TRUE(same.ok()) << same.status().ToString();
    EXPECT_EQ(same->node.get(), mine.node.get());
  }
  EXPECT_EQ(payload, FreshResolver::PayloadOf(21));
  EXPECT_EQ(resolver.calls, 6);
  // The slots kept what the walk fetched: a repeat resolves nothing.
  ASSERT_TRUE(TreeLookup(read, mine, 21, &payload).ok());
  EXPECT_EQ(payload, FreshResolver::PayloadOf(21));
  EXPECT_EQ(resolver.calls, 6);

  // Annotated, as the replay of a deferred read runs it: the path to 100
  // (64 -> 96 -> 112 -> 104 -> 100) is copied, crossing four lazy edges.
  CowContext annotate = read;
  annotate.annotate_reads = true;
  auto copied = TreeLookup(annotate, mine, 100, &payload);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(payload, FreshResolver::PayloadOf(100));
  EXPECT_EQ(resolver.calls, 10);
  ASSERT_NE(copied->node.get(), mine.node.get());
  Node* n = copied->node.get();
  for (Key step : {96, 112, 104, 100}) {
    ASSERT_EQ(n->owner(), annotate.owner) << "copied path, at " << step;
    n = n->child(step > n->key()).Peek();
    ASSERT_NE(n, nullptr);
  }
  EXPECT_EQ(n->key(), 100u);
  EXPECT_TRUE(n->read_dependent());

  // A deferred read replayed at the first write, over the copy.
  IntentionBuilder b(kWorkspaceTagBit | 2, 1, *copied,
                     IsolationLevel::kSerializable, &resolver);
  auto got = b.Get(3);  // 64 -> 32 -> 16 -> 8 -> 4 -> 2 -> 3.
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, FreshResolver::PayloadOf(3));
  ASSERT_TRUE(b.Put(127, "w").ok());
  EXPECT_EQ(resolver.calls, 10 + 4 + 4);  // 8, 4, 2, 3; 120, 124, 126, 127.

  // Dropping the roots frees every node the walks fetched.
  copied = Ref::Null();
  b = IntentionBuilder(kWorkspaceTagBit | 3, 0, Ref::Null(),
                       IsolationLevel::kSerializable, nullptr);
  mine = Ref::Null();
  EXPECT_EQ(LiveNodeCount(), live_before);
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
