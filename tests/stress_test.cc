// Stress and fault-injection suites: concurrent snapshot readers against a
// live pipeline, randomized range-scan properties, and corrupted-input
// handling for the wire codec.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/random.h"
#include "common/thread_annotations.h"
#include "log/striped_log.h"
#include "server/server.h"
#include "test_cluster.h"
#include "tree/validate.h"

namespace hyder {
namespace {

TEST(StressTest, ConcurrentSnapshotReadersDuringMeld) {
  // Executor threads traverse immutable snapshots (memoizing lazy edges via
  // CAS) while the main thread melds new intentions. Exercises the
  // ChildSlot resolution race and state refcounting.
  StripedLogOptions log_options;
  log_options.block_size = 2048;
  StripedLog log(log_options);
  HyderServer server(&log, ServerOptions{});
  constexpr Key kSpace = 400;
  {
    Transaction seed = server.Begin();
    for (Key k = 0; k < kSpace; ++k) {
      ASSERT_TRUE(seed.Put(k, "seed").ok());
    }
    ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> reader_errors{0};
  // Readers hold their own snapshots (Begin is not thread-safe on one
  // server instance, so snapshots are taken up front and refreshed by the
  // writer loop publishing into a shared slot).
  DatabaseState snap = server.LatestState();
  Mutex snap_mu;

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        DatabaseState local;
        {
          MutexLock lock(snap_mu);
          local = snap;
        }
        // Raw tree traversal through the resolver (read-only).
        NodePtr cur = local.root.node;
        Key k = rng.Uniform(kSpace);
        while (cur && cur->key() != k) {
          auto c = cur->child(k > cur->key()).Get(&server.resolver());
          if (!c.ok()) {
            reader_errors.fetch_add(1);
            break;
          }
          cur = *c;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // At least 300 writes, then more until the readers have done over 100
  // reads while melds run: on a loaded host the writer can finish 300
  // before any reader is scheduled. The cap fails the test (on the read
  // count) instead of hanging it.
  constexpr int kMinWrites = 300;
  constexpr int kMaxWrites = 20000;
  Rng rng(7);
  Status status;
  for (int i = 0; i < kMaxWrites && status.ok(); ++i) {
    if (i >= kMinWrites && reads.load() > 100) break;
    Transaction txn = server.Begin();
    status = txn.Put(rng.Uniform(kSpace), "w" + std::to_string(i));
    if (status.ok()) status = server.Submit(std::move(txn)).status();
    if (status.ok() && i % 4 == 0) {
      status = server.Poll().status();
      MutexLock lock(snap_mu);
      snap = server.LatestState();
    }
  }
  if (status.ok()) status = server.Poll().status();
  // Join before asserting: a fatal failure must not leave readers running.
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_GT(reads.load(), 100u);
}

class ScanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScanPropertyTest, ScanMatchesMapOnRandomTrees) {
  Rng rng(GetParam());
  std::map<Key, std::string> model;
  Ref root;
  CowContext ctx;
  ctx.owner = 1;
  for (int i = 0; i < 300; ++i) {
    Key k = rng.Uniform(500);
    if (rng.Bernoulli(0.7)) {
      std::string v = "v" + std::to_string(rng.Next() % 1000);
      auto r = TreeInsert(ctx, root, k, v, nullptr);
      ASSERT_TRUE(r.ok());
      root = *r;
      model[k] = v;
    } else {
      auto r = TreeRemove(ctx, root, k, nullptr, nullptr);
      ASSERT_TRUE(r.ok());
      root = *r;
      model.erase(k);
    }
  }
  // Random ranges, annotated and not: values must match the model exactly.
  for (int trial = 0; trial < 50; ++trial) {
    Key lo = rng.Uniform(520);
    Key hi = lo + rng.Uniform(100);
    for (bool annotate : {false, true}) {
      CowContext scan_ctx;
      scan_ctx.owner = 100 + trial;
      scan_ctx.annotate_reads = annotate;
      std::vector<std::pair<Key, std::string>> got;
      auto r = TreeRangeScan(scan_ctx, root, lo, hi, &got);
      ASSERT_TRUE(r.ok());
      std::vector<std::pair<Key, std::string>> want(
          model.lower_bound(lo), model.upper_bound(hi));
      EXPECT_EQ(got, want) << "range [" << lo << "," << hi << "] annotate="
                           << annotate;
      if (annotate) {
        // The annotated copy must itself be a valid BST with same content.
        std::vector<std::pair<Key, std::string>> all;
        ASSERT_TRUE(TreeCollect(nullptr, *r, &all).ok());
        EXPECT_EQ(all.size(), model.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanPropertyTest,
                         ::testing::Values(21u, 42u, 63u, 84u));

TEST(FaultInjectionTest, BitFlippedPayloadsNeverCrash) {
  // Serialize a real intention, then flip bytes one at a time: every
  // mutation must yield either a clean Corruption/parse error or a
  // well-formed (if semantically different) intention — never a crash.
  IntentionBuilder b(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < 12; ++k) {
    ASSERT_TRUE(b.Put(k, "payload-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(b.Delete(3).ok());
  auto blocks = SerializeIntention(b, 9, 4096);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 1u);
  std::string payload =
      blocks->front().substr(kBlockHeaderSize);  // Strip block header.

  int corrupt = 0, parsed = 0;
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (unsigned char flip : {0x01, 0x80}) {
      std::string mutated = payload;
      mutated[pos] = char(mutated[pos] ^ flip);
      auto r = DeserializeIntention(mutated, 1, 1);
      if (r.ok()) {
        parsed++;
      } else {
        corrupt++;
      }
    }
  }
  EXPECT_GT(corrupt, 0);
  EXPECT_GT(parsed + corrupt, 0);
}

TEST(FaultInjectionTest, TruncatedBlocksRejected) {
  IntentionBuilder b(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  ASSERT_TRUE(b.Put(1, "x").ok());
  auto blocks = SerializeIntention(b, 5, 4096);
  ASSERT_TRUE(blocks.ok());
  const std::string& block = blocks->front();
  for (size_t len : {size_t(0), size_t(5), kBlockHeaderSize - 1,
                     kBlockHeaderSize, block.size() - 1}) {
    IntentionAssembler assembler;
    auto r =
        assembler.AddBlock(/*pos=*/0, std::string_view(block).substr(0, len));
    // Either a clean decode error, or (only for the full-length prefix
    // minus payload bytes) a chunk-length mismatch.
    if (r.ok()) {
      EXPECT_FALSE(r->completed.has_value());
    } else {
      EXPECT_TRUE(r.status().IsCorruption());
    }
  }
}

TEST(FaultInjectionTest, DuplicateBlocksFiltered) {
  // Retried appends after a lost acknowledgement land byte-identical
  // copies; the assembler must skip them so the intention completes and
  // melds exactly once. A same-header block with *different* bytes is not a
  // retry but corruption.
  IntentionBuilder b(kWorkspaceTagBit | 1, 0, Ref::Null(),
                     IsolationLevel::kSerializable, nullptr);
  for (Key k = 0; k < 100; ++k) ASSERT_TRUE(b.Put(k, std::string(40, 'x')).ok());
  auto blocks = SerializeIntention(b, 5, 512);
  ASSERT_TRUE(blocks.ok());
  ASSERT_GT(blocks->size(), 2u);
  IntentionAssembler assembler;
  ASSERT_TRUE(assembler.AddBlock(/*pos=*/0, blocks->front()).ok());
  auto dup = assembler.AddBlock(/*pos=*/0, blocks->front());
  ASSERT_TRUE(dup.ok()) << dup.status().ToString();
  EXPECT_TRUE(dup->duplicate);
  EXPECT_FALSE(dup->completed.has_value());

  // Same txn id and block index but different payload bytes: fail loudly.
  std::string tampered = blocks->front();
  tampered.back() = char(tampered.back() ^ 0x01);
  auto conflict = assembler.AddBlock(/*pos=*/0, tampered);
  EXPECT_TRUE(conflict.status().IsCorruption());

  // Complete the intention, then replay every block: all duplicates, no
  // second completion.
  for (size_t i = 1; i < blocks->size(); ++i) {
    auto r = assembler.AddBlock(/*pos=*/0, (*blocks)[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->completed.has_value(), i + 1 == blocks->size());
  }
  for (const std::string& blk : *blocks) {
    auto replay = assembler.AddBlock(/*pos=*/0, blk);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->duplicate);
    EXPECT_FALSE(replay->completed.has_value());
  }
  EXPECT_EQ(assembler.pending(), 0u);
}

TEST(StressTest, LongRunningChurnKeepsInvariants) {
  // Thousands of mixed transactions on one server; periodic full-tree
  // validation and a final content check against a model.
  StripedLogOptions log_options;
  log_options.block_size = 4096;
  StripedLog log(log_options);
  ServerOptions options;
  options.pipeline.premeld_threads = 3;
  options.pipeline.premeld_distance = 2;
  options.sweep_interval = 64;
  HyderServer server(&log, options);

  Rng rng(12345);
  std::map<Key, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    Transaction txn = server.Begin();
    Key k = rng.Uniform(300);
    if (rng.Bernoulli(0.75)) {
      std::string v = "v" + std::to_string(i);
      ASSERT_TRUE(txn.Put(k, v).ok());
      auto r = server.Commit(std::move(txn));
      ASSERT_TRUE(r.ok());
      if (*r) model[k] = v;
    } else {
      auto removed = txn.Delete(k);
      ASSERT_TRUE(removed.ok());
      if (!*removed) continue;
      auto r = server.Commit(std::move(txn));
      ASSERT_TRUE(r.ok());
      if (*r) model.erase(k);
    }
    if (i % 250 == 0) {
      auto check = ValidateTree(&server.resolver(),
                                server.LatestState().root);
      ASSERT_TRUE(check.ok());
      EXPECT_TRUE(check->bst_ok) << "iteration " << i;
      EXPECT_EQ(check->node_count, model.size()) << "iteration " << i;
    }
  }
  std::vector<std::pair<Key, std::string>> items;
  ASSERT_TRUE(TreeCollect(&server.resolver(), server.LatestState().root,
                          &items)
                  .ok());
  std::map<Key, std::string> got(items.begin(), items.end());
  EXPECT_EQ(got, model);
}

TEST(StressTest, EphemeralSweepUnderChurnReclaimsMemory) {
  StripedLogOptions log_options;
  StripedLog log(log_options);
  ServerOptions options;
  options.sweep_interval = 32;
  options.pipeline.state_retention = 64;
  HyderServer server(&log, options);
  Rng rng(4242);
  {
    Transaction seed = server.Begin();
    for (Key k = 0; k < 100; ++k) ASSERT_TRUE(seed.Put(k, "s").ok());
    ASSERT_TRUE(server.Commit(std::move(seed)).ok());
  }
  // Interleaved conflicting-snapshot pairs generate ephemerals every meld.
  for (int i = 0; i < 600; ++i) {
    Transaction a = server.Begin();
    Transaction b = server.Begin();
    ASSERT_TRUE(a.Put(rng.Uniform(100), "a").ok());
    ASSERT_TRUE(b.Put(rng.Uniform(100), "b").ok());
    ASSERT_TRUE(server.Submit(std::move(a)).ok());
    ASSERT_TRUE(server.Submit(std::move(b)).ok());
    ASSERT_TRUE(server.Poll().ok());
  }
  // With retention 64 and periodic sweeps the registry must stay bounded:
  // far fewer entries than the ~1200 melds' worth of ephemerals.
  server.resolver().SweepEphemerals();
  EXPECT_LT(server.resolver().ephemeral_count(), 3000u);
  // And the data stays readable.
  Transaction check = server.Begin();
  for (Key k = 0; k < 100; ++k) {
    auto v = check.Get(k);
    ASSERT_TRUE(v.ok());
    EXPECT_TRUE(v->has_value());
  }
}

}  // namespace
}  // namespace hyder
