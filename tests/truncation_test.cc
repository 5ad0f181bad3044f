// Checkpoint-anchored log truncation and lagging-server catch-up
// (DESIGN.md "Log truncation & catch-up").
//
// Covered here:
//   * log-layer truncation semantics (FileLog with its persisted sidecar,
//     StripedLog with real byte reclamation): typed `Truncated` below the
//     mark, monotonicity, the anchor staying readable;
//   * the cluster-wide TruncationCoordinator protocol: full quiescence
//     required, states retired, pinned bases installed, servers fully
//     functional afterwards;
//   * FindLatestCheckpoint never falling back below the truncation point;
//   * CatchUpSession: graceful degradation (Busy while replaying),
//     byte-identical rejoin (§3.4), and the truncation-racing-replay
//     restart edge.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "log/fault_log.h"
#include "log/file_log.h"
#include "log/striped_log.h"
#include "server/catchup.h"
#include "server/checkpoint.h"
#include "server/cluster.h"
#include "server/truncation.h"
#include "tree/validate.h"

namespace hyder {
namespace {

constexpr size_t kBlockSize = 1024;

ServerOptions Opts(int id) {
  ServerOptions o;
  o.server_id = id;
  return o;
}

Status CommitOne(HyderServer& server, Key key, const std::string& value) {
  Transaction t = server.Begin();
  HYDER_RETURN_IF_ERROR(t.Put(key, value));
  HYDER_RETURN_IF_ERROR(server.Submit(std::move(t)).status());
  return server.Poll().status();
}

class FileLogTruncateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("/tmp/hyder_truncate_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
    std::remove((path_ + ".lwm").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".lwm").c_str());
  }
  std::string path_;
};

TEST_F(FileLogTruncateTest, TruncateSemanticsAndTypedReads) {
  FileLog::Options fo;
  fo.block_size = kBlockSize;
  auto log = FileLog::Open(path_, fo);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*log)->Append("block-" + std::to_string(i)).ok());
  }
  ASSERT_EQ((*log)->Tail(), 11u);

  ASSERT_TRUE((*log)->Truncate(5).ok());
  EXPECT_EQ((*log)->LowWaterMark(), 5u);
  EXPECT_EQ((*log)->stats().truncations, 1u);
  EXPECT_EQ((*log)->stats().truncated_blocks, 4u);
  EXPECT_EQ((*log)->stats().low_water, 5u);

  // Below the mark: typed Truncated, never garbage.
  for (uint64_t pos = 1; pos < 5; ++pos) {
    EXPECT_TRUE((*log)->Read(pos).status().IsTruncated()) << pos;
  }
  // At and above the mark: intact.
  for (uint64_t pos = 5; pos < 11; ++pos) {
    auto r = (*log)->Read(pos);
    ASSERT_TRUE(r.ok()) << pos << ": " << r.status().ToString();
    EXPECT_EQ(*r, "block-" + std::to_string(pos - 1));
  }

  // Monotone: an older mark is a silent no-op.
  ASSERT_TRUE((*log)->Truncate(3).ok());
  EXPECT_EQ((*log)->LowWaterMark(), 5u);
  EXPECT_EQ((*log)->stats().truncations, 1u);

  // The anchoring block must stay readable: truncating the whole log (or
  // past the tail) is a caller bug.
  EXPECT_TRUE((*log)->Truncate(11).IsInvalidArgument());
  EXPECT_TRUE((*log)->Truncate(99).IsInvalidArgument());
  ASSERT_TRUE((*log)->Truncate(10).ok());
  EXPECT_EQ((*log)->LowWaterMark(), 10u);
}

TEST_F(FileLogTruncateTest, LowWaterSurvivesReopen) {
  FileLog::Options fo;
  fo.block_size = kBlockSize;
  {
    auto log = FileLog::Open(path_, fo);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*log)->Append("b" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*log)->Truncate(6).ok());
  }  // Crash.
  auto reopened = FileLog::Open(path_, fo);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->LowWaterMark(), 6u);
  EXPECT_EQ((*reopened)->Tail(), 9u);
  EXPECT_TRUE((*reopened)->Read(5).status().IsTruncated());
  auto r = (*reopened)->Read(6);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "b5");
  // The log stays appendable after recovery with a truncated prefix.
  auto pos = (*reopened)->Append("after-reopen");
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, 9u);
}

TEST_F(FileLogTruncateTest, HolePunchReleasesDiskBlocks) {
  FileLog::Options fo;
  fo.block_size = kBlockSize;
  auto log = FileLog::Open(path_, fo);
  ASSERT_TRUE(log.ok());
  const std::string big(kBlockSize, 'x');
  for (int i = 0; i < 64; ++i) ASSERT_TRUE((*log)->Append(big).ok());

  struct stat before {};
  ASSERT_EQ(::stat(path_.c_str(), &before), 0);
  ASSERT_TRUE((*log)->Truncate(60).ok());
  struct stat after {};
  ASSERT_EQ(::stat(path_.c_str(), &after), 0);
  // Logical size is untouched (KEEP_SIZE keeps position arithmetic exact)...
  EXPECT_EQ(after.st_size, before.st_size);
  // ...while the reclaimed prefix's disk blocks are released where the
  // filesystem supports hole punching (best-effort elsewhere).
  EXPECT_LE(after.st_blocks, before.st_blocks);
}

TEST(StripedLogTruncateTest, TruncateReclaimsBytes) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  lo.storage_units = 3;
  StripedLog log(lo);
  const std::string payload(200, 'p');
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(log.Append(payload).ok());
  EXPECT_EQ(log.RetainedBytes(), 12u * 200);

  ASSERT_TRUE(log.Truncate(7).ok());
  EXPECT_EQ(log.LowWaterMark(), 7u);
  EXPECT_EQ(log.RetainedBytes(), 6u * 200)
      << "the prefix must actually be reclaimed, not just fenced off";
  EXPECT_TRUE(log.Read(6).status().IsTruncated());
  ASSERT_TRUE(log.Read(7).ok());
  EXPECT_EQ(log.stats().truncated_blocks, 6u);

  // Appends continue normally over the truncated prefix.
  auto pos = log.Append(payload);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, 13u);
  EXPECT_EQ(log.RetainedBytes(), 7u * 200);
}

TEST(TruncationCoordinatorTest, RequiresFullQuiescence) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  HyderServer s0(&log, Opts(0));
  HyderServer s1(&log, Opts(1));
  ASSERT_TRUE(CommitOne(s0, 1, "one").ok());
  ASSERT_TRUE(s1.Poll().ok());
  auto ckpt = WriteCheckpoint(s0);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();

  // s1 has not seen the checkpoint blocks yet: not at the tail -> Busy,
  // and nothing is mutated.
  TruncationCoordinator coordinator(&log);
  auto busy = coordinator.TruncateToCheckpoint(*ckpt, {&s0, &s1});
  EXPECT_TRUE(busy.status().IsBusy()) << busy.status().ToString();
  EXPECT_EQ(log.LowWaterMark(), 1u);
  EXPECT_EQ(coordinator.failures(), 1u);

  ASSERT_TRUE(s0.Poll().ok());
  ASSERT_TRUE(s1.Poll().ok());
  auto done = coordinator.TruncateToCheckpoint(*ckpt, {&s0, &s1});
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(log.LowWaterMark(), ckpt->first_block);
  EXPECT_EQ(done->blocks_reclaimed, ckpt->first_block - 1);
  EXPECT_EQ(coordinator.rounds(), 1u);
}

TEST(TruncationCoordinatorTest, ClusterKeepsWorkingAfterTruncation) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  HyderServer s0(&log, Opts(0));
  HyderServer s1(&log, Opts(1));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(CommitOne(i % 2 ? s1 : s0, Key(i % 7), "v" +
                          std::to_string(i)).ok());
    ASSERT_TRUE((i % 2 ? s0 : s1).Poll().ok());
  }
  auto ckpt = WriteCheckpoint(s0);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  ASSERT_TRUE(s0.Poll().ok());
  ASSERT_TRUE(s1.Poll().ok());

  TruncationCoordinator coordinator(&log);
  auto report = coordinator.TruncateToCheckpoint(*ckpt, {&s0, &s1});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->blocks_reclaimed, 0u);
  EXPECT_GT(report->states_retired, 0u);
  // Every intention lies below the cut, on both servers.
  EXPECT_EQ(report->directory_entries_dropped, 2u * 20);
  EXPECT_EQ(s0.resolver().pinned_state_seq(), ckpt->state_seq);
  EXPECT_EQ(s1.resolver().pinned_state_seq(), ckpt->state_seq);

  // Old content is still readable (through the pinned base where the log
  // prefix is gone) and new work proceeds; the cluster stays converged.
  Transaction reader = s0.Begin();
  auto old_value = reader.Get(Key(19 % 7));
  ASSERT_TRUE(old_value.ok()) << old_value.status().ToString();
  ASSERT_TRUE(old_value->has_value());
  EXPECT_EQ(**old_value, "v19");

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CommitOne(s0, Key(100 + i), "post").ok());
    ASSERT_TRUE(s1.Poll().ok());
  }
  std::string diff;
  auto equal = PhysicallyEqual(&s0.resolver(), s0.LatestState().root,
                               &s1.resolver(), s1.LatestState().root, &diff);
  ASSERT_TRUE(equal.ok());
  EXPECT_TRUE(*equal) << diff;
}

TEST(TruncationCoordinatorTest,
     CheckpointDirectoryHoldsOnlyIntentionsAboveMark) {
  // Each round drops the resolver directory entries wholly below the new
  // mark, so the directory a later checkpoint carries starts after the last
  // anchor instead of at the log's first intention.
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  HyderServer s0(&log, Opts(0));
  HyderServer s1(&log, Opts(1));
  TruncationCoordinator coordinator(&log);
  uint64_t anchor_seq = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(CommitOne(i % 2 ? s1 : s0, Key(10 * round + i), "v").ok());
      ASSERT_TRUE((i % 2 ? s0 : s1).Poll().ok());
    }
    auto ckpt = WriteCheckpoint(s0);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    ASSERT_TRUE(s0.Poll().ok());
    ASSERT_TRUE(s1.Poll().ok());
    auto report = coordinator.TruncateToCheckpoint(*ckpt, {&s0, &s1});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(report->blocks_reclaimed, 0u) << "round " << round;
    anchor_seq = ckpt->state_seq;
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitOne(s0, Key(100 + i), "tail").ok());
  }
  ASSERT_TRUE(s1.Poll().ok());
  EXPECT_EQ(s1.resolver().ExportDirectory().size(), 5u);
  auto latest = WriteCheckpoint(s0);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();

  auto rookie = BootstrapFromCheckpoint(&log, *latest, Opts(2));
  ASSERT_TRUE(rookie.ok()) << rookie.status().ToString();
  const auto carried = (*rookie)->resolver().ExportDirectory();
  ASSERT_EQ(carried.size(), 5u) << "the intentions melded since the anchor";
  for (const auto& entry : carried) {
    EXPECT_GT(entry.seq, anchor_seq);
    for (uint64_t pos : entry.positions) EXPECT_GE(pos, log.LowWaterMark());
  }
}

TEST(TruncationCoordinatorTest, FallbackNeverSelectsCheckpointBelowMark) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog base(lo);
  FaultInjectingLog log(&base, FaultInjectionOptions{});
  HyderServer server(&log, Opts(0));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitOne(server, Key(i), "a").ok());
  }
  auto older = WriteCheckpoint(server);
  ASSERT_TRUE(older.ok());
  ASSERT_TRUE(server.Poll().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitOne(server, Key(i), "b").ok());
  }
  auto newer = WriteCheckpoint(server);
  ASSERT_TRUE(newer.ok());
  ASSERT_TRUE(server.Poll().ok());

  TruncationCoordinator coordinator(&log);
  ASSERT_TRUE(coordinator.TruncateToCheckpoint(*newer, {&server}).ok());
  ASSERT_EQ(log.LowWaterMark(), newer->first_block);

  // The newest anchor is intact: the scan must pick it.
  auto found = FindLatestCheckpoint(log);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->state_seq, newer->state_seq);
  EXPECT_GE((*found)->first_block, log.LowWaterMark());

  // Damage the newest anchor. The older checkpoint sits BELOW the
  // truncation point — its blocks are gone — so the fallback must report
  // "no checkpoint" rather than resurrect it.
  for (uint64_t pos = newer->first_block;
       pos < newer->first_block + newer->block_count; ++pos) {
    log.CorruptPosition(pos);
  }
  auto none = FindLatestCheckpoint(log);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_FALSE(none->has_value())
      << "scan selected a checkpoint older than the truncation point";

  // And a joining server bounded by max_fetch_rounds reports Unavailable
  // instead of spinning or bootstrapping from garbage.
  CatchUpOptions co;
  co.server = Opts(1);
  co.max_fetch_rounds = 3;
  auto joined = CatchUpServer(&log, co);
  EXPECT_TRUE(joined.status().IsUnavailable()) << joined.status().ToString();
}

TEST(CatchUpTest, LaggingServerRejoinsByteIdentical) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  HyderServer s0(&log, Opts(0));
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(CommitOne(s0, Key(i % 5), "v" + std::to_string(i)).ok());
  }
  auto ckpt = WriteCheckpoint(s0);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(s0.Poll().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CommitOne(s0, Key(i % 5), "tail" + std::to_string(i)).ok());
  }

  CatchUpOptions co;
  co.server = Opts(1);
  co.replay_batch = 2;
  CatchUpSession session(&log, co);

  bool saw_busy = false;
  while (!session.done()) {
    ASSERT_TRUE(session.Step().ok());
    if (session.phase() == CatchUpSession::Phase::kReplaying &&
        session.server() != nullptr && !saw_busy) {
      // Graceful degradation: mid-replay the server must refuse work.
      EXPECT_EQ(session.server()->serve_state(),
                HyderServer::ServeState::kCatchingUp);
      Transaction t = session.server()->Begin();
      ASSERT_TRUE(t.Put(99, "rejected").ok());
      auto sub = session.server()->Submit(std::move(t));
      EXPECT_TRUE(sub.status().IsBusy()) << sub.status().ToString();
      saw_busy = true;
    }
  }
  EXPECT_TRUE(saw_busy) << "session never exposed a replaying server";
  EXPECT_EQ(session.report().checkpoint_state_seq, ckpt->state_seq);

  std::unique_ptr<HyderServer> joined = session.TakeServer();
  ASSERT_NE(joined, nullptr);
  EXPECT_EQ(joined->serve_state(), HyderServer::ServeState::kServing);
  ASSERT_EQ(joined->LatestState().seq, s0.LatestState().seq);
  std::string diff;
  auto equal =
      PhysicallyEqual(&s0.resolver(), s0.LatestState().root,
                      &joined->resolver(), joined->LatestState().root, &diff);
  ASSERT_TRUE(equal.ok());
  EXPECT_TRUE(*equal) << diff;

  // The rejoined server serves transactions again.
  Transaction t = joined->Begin();
  ASSERT_TRUE(t.Put(7, "fresh").ok());
  ASSERT_TRUE(joined->Submit(std::move(t)).ok());
  ASSERT_TRUE(joined->Poll().ok());
  ASSERT_TRUE(s0.Poll().ok());
}

TEST(CatchUpTest, TruncationRacingReplayRestartsFromNewerAnchor) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  HyderServer s0(&log, Opts(0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(CommitOne(s0, Key(i), "early").ok());
  }
  auto older = WriteCheckpoint(s0);
  ASSERT_TRUE(older.ok());
  ASSERT_TRUE(s0.Poll().ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(CommitOne(s0, Key(i), "late" + std::to_string(i)).ok());
  }

  // The session bootstraps from the older anchor and replays slowly...
  CatchUpOptions co;
  co.server = Opts(1);
  co.replay_batch = 1;
  CatchUpSession session(&log, co);
  ASSERT_TRUE(session.Step().ok());  // Fetch + bootstrap.
  ASSERT_EQ(session.phase(), CatchUpSession::Phase::kReplaying);
  ASSERT_TRUE(session.Step().ok());  // A little replay progress.

  // ...while the cluster anchors a NEWER checkpoint and truncates at it.
  auto newer = WriteCheckpoint(s0);
  ASSERT_TRUE(newer.ok());
  ASSERT_TRUE(s0.Poll().ok());
  TruncationCoordinator coordinator(&log);
  auto truncated = coordinator.TruncateToCheckpoint(*newer, {&s0});
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  ASSERT_GT(log.LowWaterMark(), older->first_block);

  // The session must notice its anchor died, restart from the newer one,
  // and still converge byte-identically.
  for (int step = 0; !session.done(); ++step) {
    ASSERT_LT(step, 10000) << "catch-up did not converge";
    ASSERT_TRUE(session.Step().ok());
  }
  EXPECT_GE(session.report().restarts, 1u)
      << "truncation raced replay but the session never re-anchored";
  EXPECT_EQ(session.report().checkpoint_state_seq, newer->state_seq);

  std::unique_ptr<HyderServer> joined = session.TakeServer();
  ASSERT_EQ(joined->LatestState().seq, s0.LatestState().seq);
  std::string diff;
  auto equal =
      PhysicallyEqual(&s0.resolver(), s0.LatestState().root,
                      &joined->resolver(), joined->LatestState().root, &diff);
  ASSERT_TRUE(equal.ok());
  EXPECT_TRUE(*equal) << diff;
}

}  // namespace
}  // namespace hyder
