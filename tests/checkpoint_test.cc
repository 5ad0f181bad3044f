#include "server/checkpoint.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/varint.h"
#include "log/fault_log.h"
#include "server/cluster.h"
#include "tree/validate.h"
#include "txn/codec.h"

namespace hyder {
namespace {

StripedLogOptions TestLog() {
  StripedLogOptions o;
  o.block_size = 1024;  // Small blocks: multi-block checkpoints.
  return o;
}

void RunTraffic(HyderServer& server, Rng& rng, int txns, Key space = 60) {
  for (int i = 0; i < txns; ++i) {
    Transaction t = server.Begin();
    EXPECT_TRUE(t.Put(rng.Uniform(space), "v" + std::to_string(rng.Next() %
                                                               1000))
                    .ok());
    if (rng.Bernoulli(0.4)) {
      auto v = t.Get(rng.Uniform(space));
      EXPECT_TRUE(v.ok());
    }
    auto r = server.Commit(std::move(t));
    EXPECT_TRUE(r.ok());
  }
}

TEST(CheckpointTest, WriteAndFind) {
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Rng rng(1);
  RunTraffic(server, rng, 80, /*space=*/200);
  auto info = WriteCheckpoint(server);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->state_seq, server.LatestState().seq);
  EXPECT_GT(info->node_count, 0u);
  EXPECT_GT(info->block_count, 1u) << "small blocks must split checkpoints";

  auto found = FindLatestCheckpoint(log);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->state_seq, info->state_seq);
  EXPECT_EQ((*found)->first_block, info->first_block);
  EXPECT_EQ((*found)->resume_position, info->resume_position);
}

TEST(CheckpointTest, RequiresQuiescence) {
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Transaction t = server.Begin();
  ASSERT_TRUE(t.Put(1, "x").ok());
  ASSERT_TRUE(server.Submit(std::move(t)).ok());
  // Unpolled blocks remain: checkpoint must refuse.
  auto info = WriteCheckpoint(server);
  EXPECT_TRUE(info.status().IsBusy());
  ASSERT_TRUE(server.Poll().ok());
  EXPECT_TRUE(WriteCheckpoint(server).ok());
}

TEST(CheckpointTest, BootstrappedServerIsPhysicallyIdentical) {
  StripedLog log(TestLog());
  HyderServer veteran(&log, ServerOptions{});
  Rng rng(2);
  RunTraffic(veteran, rng, 50);
  auto info = WriteCheckpoint(veteran);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto rookie = BootstrapFromCheckpoint(&log, *info, ServerOptions{});
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();
  std::string diff;
  auto same = PhysicallyEqual(&veteran.resolver(),
                              veteran.LatestState().root,
                              &(*rookie)->resolver(),
                              (*rookie)->LatestState().root, &diff);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same) << diff;
  EXPECT_EQ((*rookie)->LatestState().seq, veteran.LatestState().seq);
}

TEST(CheckpointTest, BootstrappedServerRollsForwardWithCluster) {
  StripedLog log(TestLog());
  HyderServer veteran(&log, ServerOptions{});
  Rng rng(3);
  RunTraffic(veteran, rng, 40);
  auto info = WriteCheckpoint(veteran);
  ASSERT_TRUE(info.ok());
  auto rookie = BootstrapFromCheckpoint(&log, *info, ServerOptions{});
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();

  // More traffic on the veteran AFTER the checkpoint: the rookie must meld
  // it identically (the checkpoint block sits between intention blocks and
  // is skipped by everyone).
  RunTraffic(veteran, rng, 40);
  ASSERT_TRUE((*rookie)->Poll().ok());
  ASSERT_EQ((*rookie)->LatestState().seq, veteran.LatestState().seq);
  std::string diff;
  auto same = PhysicallyEqual(&veteran.resolver(),
                              veteran.LatestState().root,
                              &(*rookie)->resolver(),
                              (*rookie)->LatestState().root, &diff);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same) << diff;
}

TEST(CheckpointTest, BootstrappedServerExecutesTransactions) {
  StripedLog log(TestLog());
  HyderServer veteran(&log, ServerOptions{});
  Rng rng(4);
  RunTraffic(veteran, rng, 30);
  auto info = WriteCheckpoint(veteran);
  ASSERT_TRUE(info.ok());
  auto rookie = BootstrapFromCheckpoint(&log, *info, ServerOptions{});
  ASSERT_TRUE(rookie.ok());

  Transaction t = (*rookie)->Begin();
  ASSERT_TRUE(t.Put(999, "from the rookie").ok());
  auto committed = (*rookie)->Commit(std::move(t));
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_TRUE(*committed);
  // Visible at the veteran too.
  ASSERT_TRUE(veteran.Poll().ok());
  Transaction check = veteran.Begin();
  auto v = check.Get(999);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "from the rookie");
}

/// Polls `rookie` to the tail and expects it at `veteran`'s state,
/// physically identical.
void ExpectConverged(HyderServer& veteran, HyderServer& rookie) {
  ASSERT_TRUE(rookie.Poll().ok());
  ASSERT_EQ(rookie.LatestState().seq, veteran.LatestState().seq);
  std::string diff;
  auto same = PhysicallyEqual(&veteran.resolver(), veteran.LatestState().root,
                              &rookie.resolver(), rookie.LatestState().root,
                              &diff);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same) << diff;
}

TEST(CheckpointTest, TransactionBegunBeforeCheckpointCommittedAfter) {
  // A server issues ids at Begin and appends at Submit, so an origin's ids
  // do not reach the log in id order: x's id is below y's, but x lands
  // after the checkpoint. The rookie must meld x as the veteran does.
  StripedLog log(TestLog());
  HyderServer veteran(&log, ServerOptions{});
  Transaction seed = veteran.Begin();
  for (Key k = 1; k <= 3; ++k) ASSERT_TRUE(seed.Put(k, "seed").ok());
  ASSERT_TRUE(veteran.Commit(std::move(seed)).ok());
  Transaction x = veteran.Begin();
  ASSERT_TRUE(x.Put(2, "x").ok());
  Transaction y = veteran.Begin();
  ASSERT_TRUE(y.Put(1, "y").ok());
  auto committed = veteran.Commit(std::move(y));
  ASSERT_TRUE(committed.ok() && *committed);
  auto info = WriteCheckpoint(veteran);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto rookie = BootstrapFromCheckpoint(&log, *info, ServerOptions{});
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();

  committed = veteran.Commit(std::move(x));
  ASSERT_TRUE(committed.ok() && *committed);
  ExpectConverged(veteran, **rookie);
}

TEST(CheckpointTest, RetriedCopyOfLastIntentionAfterCheckpointIsDropped) {
  // A lost-ack retry lands a second copy of x's block after the
  // checkpoint. The veteran's assembler knows x completed; the rookie's
  // must too, from the checkpoint, or it melds x twice. y is begun first,
  // so its id is below x's: the rookie must drop exactly the copy, not
  // every id below x's.
  StripedLog log(TestLog());
  HyderServer veteran(&log, ServerOptions{});
  Transaction y = veteran.Begin();
  ASSERT_TRUE(y.Put(2, "y").ok());
  Transaction x = veteran.Begin();
  ASSERT_TRUE(x.Put(1, "x").ok());
  auto committed = veteran.Commit(std::move(x));
  ASSERT_TRUE(committed.ok() && *committed);
  auto x_block = log.Read(log.Tail() - 1);
  ASSERT_TRUE(x_block.ok());
  auto header = DecodeBlockHeader(*x_block);
  ASSERT_TRUE(header.ok());
  ASSERT_EQ(header->total, 1u) << "x must be one block: its last";
  auto info = WriteCheckpoint(veteran);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(log.Append(*x_block).ok());
  committed = veteran.Commit(std::move(y));
  ASSERT_TRUE(committed.ok() && *committed);

  auto rookie = BootstrapFromCheckpoint(&log, *info, ServerOptions{});
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();
  ExpectConverged(veteran, **rookie);
  EXPECT_EQ((*rookie)->duplicate_blocks(), 1u);
}

TEST(CheckpointTest, CheckpointWithPremeldConfiguration) {
  ServerOptions options;
  options.pipeline.premeld_threads = 2;
  options.pipeline.premeld_distance = 2;
  StripedLog log(TestLog());
  HyderServer veteran(&log, options);
  Rng rng(5);
  // Interleaved submissions create ephemeral nodes from premeld threads.
  for (int round = 0; round < 15; ++round) {
    Transaction a = veteran.Begin();
    Transaction b = veteran.Begin();
    ASSERT_TRUE(a.Put(rng.Uniform(40), "a").ok());
    ASSERT_TRUE(b.Put(rng.Uniform(40) + 40, "b").ok());
    ASSERT_TRUE(veteran.Submit(std::move(a)).ok());
    ASSERT_TRUE(veteran.Submit(std::move(b)).ok());
    ASSERT_TRUE(veteran.Poll().ok());
  }
  auto info = WriteCheckpoint(veteran);
  ASSERT_TRUE(info.ok());
  auto rookie = BootstrapFromCheckpoint(&log, *info, options);
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();

  // Continue and verify convergence (ephemeral identities preserved).
  for (int round = 0; round < 10; ++round) {
    Transaction a = veteran.Begin();
    ASSERT_TRUE(a.Put(rng.Uniform(80), "c").ok());
    ASSERT_TRUE(veteran.Submit(std::move(a)).ok());
    ASSERT_TRUE(veteran.Poll().ok());
  }
  ASSERT_TRUE((*rookie)->Poll().ok());
  std::string diff;
  auto same = PhysicallyEqual(&veteran.resolver(),
                              veteran.LatestState().root,
                              &(*rookie)->resolver(),
                              (*rookie)->LatestState().root, &diff);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same) << diff;
}

TEST(CheckpointTest, NoCheckpointFound) {
  StripedLog log(TestLog());
  auto found = FindLatestCheckpoint(log);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found->has_value());
}

TEST(CheckpointTest, LatestOfSeveralCheckpointsWins) {
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Rng rng(6);
  RunTraffic(server, rng, 10);
  ASSERT_TRUE(WriteCheckpoint(server).ok());
  RunTraffic(server, rng, 10);
  ASSERT_TRUE(server.Poll().ok());
  auto second = WriteCheckpoint(server);
  ASSERT_TRUE(second.ok());
  auto found = FindLatestCheckpoint(log);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->state_seq, second->state_seq);
}

TEST(CheckpointTest, TornNewestCheckpointFallsBackToPrevious) {
  // A checkpointer that crashes mid-write leaves an incomplete newest
  // checkpoint in the log; recovery must settle on the previous complete
  // one instead of failing or trusting the torn one.
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Rng rng(7);
  RunTraffic(server, rng, 20, /*space=*/200);
  auto complete = WriteCheckpoint(server);
  ASSERT_TRUE(complete.ok());

  // Hand-craft the torn checkpoint: 2 of an advertised 3 blocks landed.
  const uint64_t torn_id = kCheckpointTxnBit | (complete->state_seq + 5);
  for (uint32_t i = 0; i < 2; ++i) {
    BlockHeader h;
    h.txn_id = torn_id;
    h.index = i;
    h.total = 3;
    h.chunk_len = 8;
    std::string block;
    EncodeBlockHeader(h, &block);
    block.append(8, '\xab');
    ASSERT_TRUE(log.Append(std::move(block)).ok());
  }

  auto found = FindLatestCheckpoint(log);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->state_seq, complete->state_seq)
      << "must fall back to the last complete checkpoint";
  EXPECT_EQ((*found)->first_block, complete->first_block);
}

TEST(CheckpointTest, CorruptCheckpointBlockFallsBackToPrevious) {
  // One of the newest checkpoint's blocks decays (reads fail with DataLoss,
  // as a CRC mismatch in a file-backed log would): that checkpoint can
  // never be assembled, so recovery picks the previous intact one.
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Rng rng(8);
  RunTraffic(server, rng, 15, /*space=*/200);
  auto first = WriteCheckpoint(server);
  ASSERT_TRUE(first.ok());
  RunTraffic(server, rng, 15, /*space=*/200);
  ASSERT_TRUE(server.Poll().ok());
  auto second = WriteCheckpoint(server);
  ASSERT_TRUE(second.ok());

  FaultInjectingLog faulty(&log, FaultInjectionOptions{});
  faulty.CorruptPosition(second->first_block);
  auto found = FindLatestCheckpoint(faulty);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->state_seq, first->state_seq);

  // The surviving checkpoint still bootstraps a server; its replay then
  // hits the decayed position and surfaces DataLoss — the permanently lost
  // block is never silently skipped on the meld path. Over the healthy
  // underlying log, replay completes and converges.
  auto rookie = BootstrapFromCheckpoint(&faulty, **found, ServerOptions{});
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();
  auto poll = (*rookie)->Poll();
  EXPECT_TRUE(poll.status().IsDataLoss()) << poll.status().ToString();

  auto healthy = BootstrapFromCheckpoint(&log, **found, ServerOptions{});
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_TRUE((*healthy)->Poll().ok());
  EXPECT_EQ((*healthy)->LatestState().seq, server.LatestState().seq);
}

TEST(CheckpointTest, ReservedRecordFlagBitsAreRefused) {
  // A tree record's flags byte uses bits 0-2 (red, left present, right
  // present). Any other bit is corruption: bootstrap must refuse the
  // record rather than decode it under some other record layout.
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Transaction t = server.Begin();
  ASSERT_TRUE(t.Put(7, "x").ok());
  auto committed = server.Commit(std::move(t));
  ASSERT_TRUE(committed.ok() && *committed);
  auto info = WriteCheckpoint(server);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->block_count, 1u);
  ASSERT_EQ(info->node_count, 1u);

  // Walk the payload header to the only record's flags byte.
  auto block = log.Read(info->first_block);
  ASSERT_TRUE(block.ok());
  const char* base = block->data();
  const char* limit = base + block->size();
  const char* p = base + kBlockHeaderSize + 4;  // Past the magic.
  auto next = [&p, limit] {
    uint64_t v = 0;
    if (p != nullptr) p = GetVarint64(p, limit, &v);
    return v;
  };
  next();  // State seq.
  next();  // Resume position.
  const uint64_t dir_count = next();
  for (uint64_t i = 0; i < dir_count; ++i) {
    next();  // Intention seq.
    const uint64_t positions = next();
    for (uint64_t j = 0; j < positions; ++j) next();
  }
  ASSERT_EQ(next(), 1u);  // Node count.
  ASSERT_NE(p, nullptr);
  const size_t flags_at = size_t(p - base);
  ASSERT_EQ((*block)[flags_at] & ~0x1, 0) << "a leaf: no child bits set";

  // The intact copy bootstraps; a copy with any reserved bit is Corruption.
  ASSERT_TRUE(BootstrapFromCheckpoint(&log, *info, ServerOptions{}).ok());
  for (int bit = 3; bit < 8; ++bit) {
    std::string copy = *block;
    copy[flags_at] = static_cast<char>(copy[flags_at] | (1u << bit));
    auto pos = log.Append(copy);
    ASSERT_TRUE(pos.ok());
    CheckpointInfo forged = *info;
    forged.first_block = *pos;
    auto rookie = BootstrapFromCheckpoint(&log, forged, ServerOptions{});
    ASSERT_FALSE(rookie.ok()) << "bit " << bit;
    EXPECT_TRUE(rookie.status().IsCorruption())
        << "bit " << bit << ": " << rookie.status().ToString();
  }
}

TEST(CheckpointTest, PayloadEndingBeforeCountersOrOriginsIsCorruption) {
  // The allocator counters and the per-origin records close every
  // checkpoint payload; a payload cut before either is Corruption.
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Transaction t = server.Begin();
  ASSERT_TRUE(t.Put(7, "x").ok());
  auto committed = server.Commit(std::move(t));
  ASSERT_TRUE(committed.ok() && *committed);
  auto info = WriteCheckpoint(server);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->block_count, 1u);
  auto block = log.Read(info->first_block);
  ASSERT_TRUE(block.ok());
  auto header = DecodeBlockHeader(*block);
  ASSERT_TRUE(header.ok());
  const std::string payload =
      block->substr(kBlockHeaderSize, header->chunk_len);

  std::string counters;
  const std::vector<uint64_t> c = server.pipeline().EphemeralCounters();
  PutVarint64(&counters, c.size());
  for (uint64_t v : c) PutVarint64(&counters, v);
  std::string origins;
  PutVarint64(&origins, server.assembler().origins().size());
  for (const auto& [origin, record] : server.assembler().origins()) {
    PutVarint64(&origins, origin);
    PutVarint64(&origins, record.floor);
    PutVarint64(&origins, record.last);
  }
  const std::string tail = counters + origins;
  ASSERT_GT(payload.size(), tail.size());
  ASSERT_EQ(payload.substr(payload.size() - tail.size()), tail);

  for (size_t cut : {payload.size() - tail.size(),
                     payload.size() - origins.size()}) {
    BlockHeader h = *header;
    h.chunk_len = static_cast<uint32_t>(cut);
    std::string forged;
    EncodeBlockHeader(h, &forged);
    forged.append(payload, 0, cut);
    auto pos = log.Append(forged);
    ASSERT_TRUE(pos.ok());
    CheckpointInfo at = *info;
    at.first_block = *pos;
    auto rookie = BootstrapFromCheckpoint(&log, at, ServerOptions{});
    ASSERT_FALSE(rookie.ok()) << "cut at " << cut;
    EXPECT_TRUE(rookie.status().IsCorruption())
        << "cut at " << cut << ": " << rookie.status().ToString();
  }
}

TEST(CheckpointTest, DuplicateCheckpointBlocksCountedOnce) {
  // A retried checkpoint append lands one block twice. The scanner must not
  // mistake the extra copy for completion of a still-incomplete checkpoint,
  // nor miscount a complete one.
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Rng rng(9);
  RunTraffic(server, rng, 80, /*space=*/200);
  auto info = WriteCheckpoint(server);
  ASSERT_TRUE(info.ok());
  ASSERT_GT(info->block_count, 1u);

  // Duplicate the first checkpoint block.
  auto copy = log.Read(info->first_block);
  ASSERT_TRUE(copy.ok());
  ASSERT_TRUE(log.Append(std::move(*copy)).ok());

  auto found = FindLatestCheckpoint(log);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->state_seq, info->state_seq);
  EXPECT_EQ((*found)->first_block, info->first_block);
  // Bootstrap still assembles the payload exactly once per index.
  auto rookie = BootstrapFromCheckpoint(&log, **found, ServerOptions{});
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();
}

TEST(CheckpointTest, TimeTravelReadsViaBeginAt) {
  StripedLog log(TestLog());
  HyderServer server(&log, ServerOptions{});
  Transaction t1 = server.Begin();
  ASSERT_TRUE(t1.Put(5, "old").ok());
  ASSERT_TRUE(server.Commit(std::move(t1)).ok());
  const uint64_t then = server.LatestState().seq;
  Transaction t2 = server.Begin();
  ASSERT_TRUE(t2.Put(5, "new").ok());
  ASSERT_TRUE(server.Commit(std::move(t2)).ok());

  auto historical = server.BeginAt(then, IsolationLevel::kSnapshot);
  ASSERT_TRUE(historical.ok());
  auto v = historical->Get(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "old");
  // Retired states fail cleanly.
  EXPECT_TRUE(server.BeginAt(999999, IsolationLevel::kSnapshot)
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace hyder
