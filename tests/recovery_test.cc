// Crash-recovery and fault-injection harness.
//
// The scenarios here drive a two-server cluster over a durable FileLog
// wrapped in a FaultInjectingLog and a RetryingLog (which retries the
// transient faults), kill and reopen the log at injected fault
// points (including torn and corrupt garbage at the tail), rebuild servers
// via checkpoint bootstrap and via full replay, and assert that the cluster
// still converges to a state *physically identical* (§3.4) to a fault-free
// reference run of the same operation schedule. Determinism rests on three
// properties exercised throughout:
//   1. torn/garbage blocks can never decode as complete blocks, so every
//      server skips them identically;
//   2. retried appends (lost acks) land duplicate copies that the assembler
//      filters by (server id, local seq), so nothing melds twice;
//   3. restarted servers recover their local txn-sequence floor from the
//      log / checkpoint directory, so ids are never reused.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "log/fault_log.h"
#include "log/file_log.h"
#include "log/retrying_log.h"
#include "log/striped_log.h"
#include "server/catchup.h"
#include "server/checkpoint.h"
#include "server/cluster.h"
#include "server/truncation.h"
#include "tree/validate.h"

namespace hyder {
namespace {

constexpr size_t kBlockSize = 1024;

ServerOptions HarnessOptions(int server_id) {
  ServerOptions o;
  o.server_id = server_id;
  return o;
}

// The convergence loop's seed window defaults to 1..100 and can be
// re-based from the environment, as chaos_test's can (CI runs 101..1000).
uint64_t EnvSeed(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

struct Op {
  int server;
  Key key;
  std::string value;
};

std::vector<Op> MakeOps(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (int i = 0; i < count; ++i) {
    ops.push_back(Op{int(rng.Uniform(2)), Key(rng.Uniform(40)),
                     "v" + std::to_string(rng.Next() % 100000)});
  }
  return ops;
}

/// Fault-free reference: the same op schedule on an in-memory striped log.
std::unique_ptr<Cluster> RunReference(const std::vector<Op>& ops) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  auto cluster = std::make_unique<Cluster>(2, lo, ServerOptions{});
  for (const Op& op : ops) {
    Transaction t = cluster->server(op.server).Begin();
    EXPECT_TRUE(t.Put(op.key, op.value).ok());
    EXPECT_TRUE(cluster->server(op.server).Submit(std::move(t)).ok());
    EXPECT_TRUE(cluster->PollAll().ok());
  }
  return cluster;
}

/// Appends garbage at the file tail, simulating what a crashed appender can
/// leave behind: a partial slot (mode 0) or a whole slot whose checksum does
/// not match its payload (mode 1).
void AppendCrashGarbage(const std::string& path, int mode, Rng& rng) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const size_t slot = kBlockSize + 8;
  const size_t len = (mode == 0) ? 1 + rng.Uniform(slot - 1) : slot;
  std::string junk;
  junk.reserve(len);
  for (size_t i = 0; i < len; ++i) junk.push_back(char(rng.Next() & 0xff));
  if (mode == 1) {
    // A valid-looking v2 length word with a CRC that cannot match random
    // payload bytes: recovery's final-slot checksum check must drop it.
    junk[3] = char(junk[3] | 0x80);
    junk[0] = 100;
    junk[1] = junk[2] = 0;
  }
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  std::fclose(f);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("/tmp/hyder_recovery_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

/// The logs of one faulty run, innermost first, and the cluster over them.
struct FaultyRun {
  std::unique_ptr<FileLog> file;
  std::unique_ptr<FaultInjectingLog> fault;
  std::unique_ptr<RetryingLog> retrying;
  std::unique_ptr<Cluster> cluster;
};

/// Fault counts and retries summed over the faulty runs.
struct FaultTotals {
  FaultInjectingLog::FaultCounts counts;
  uint64_t retries = 0;
};

/// One faulty run: crash/reopen every few ops, checkpoint occasionally,
/// rebuild one server from the latest checkpoint and one by full replay.
/// Returns the fault cluster for comparison; accumulates fault counts.
void RunFaulty(const std::string& path, uint64_t seed,
               const std::vector<Op>& ops, FaultyRun* out,
               FaultTotals* totals) {
  FileLog::Options fo;
  fo.block_size = kBlockSize;

  FaultInjectionOptions fi;
  fi.seed = seed * 7919 + 1;
  fi.append_fail_p = 0.06;
  fi.append_duplicate_p = 0.08;
  fi.append_torn_p = 0.06;
  fi.read_fail_p = 0.08;
  // read_dataloss_p stays 0 in convergence runs: permanent medium loss is
  // *supposed* to halt rollforward (see DataLossSurfacesInsteadOfMelding).

  auto accumulate = [totals](const FaultInjectingLog& log) {
    FaultInjectingLog::FaultCounts c = log.fault_counts();
    totals->counts.append_failures += c.append_failures;
    totals->counts.duplicate_appends += c.duplicate_appends;
    totals->counts.torn_appends += c.torn_appends;
    totals->counts.read_failures += c.read_failures;
    totals->retries += log.stats().retries;
  };

  auto file = FileLog::Open(path, fo);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto fault = std::make_unique<FaultInjectingLog>(file->get(), fi);
  auto retrying = std::make_unique<RetryingLog>(fault.get());
  std::vector<std::unique_ptr<HyderServer>> servers;
  servers.push_back(
      std::make_unique<HyderServer>(retrying.get(), HarnessOptions(0)));
  servers.push_back(
      std::make_unique<HyderServer>(retrying.get(), HarnessOptions(1)));

  Rng crash_rng(seed * 31 + 7);
  int crashes = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0 && i % 13 == 0) {
      // --- Crash: drop every in-memory structure, damage the tail, reopen.
      accumulate(*fault);
      servers.clear();
      retrying.reset();
      fault.reset();
      file->reset();
      AppendCrashGarbage(path, crashes % 2, crash_rng);
      crashes++;

      file = FileLog::Open(path, fo);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      fi.seed = seed * 7919 + 100 + uint64_t(crashes);
      fault = std::make_unique<FaultInjectingLog>(file->get(), fi);
      retrying = std::make_unique<RetryingLog>(fault.get());

      // Server 0 restarts from the newest intact checkpoint when one
      // exists; server 1 always replays the whole log. Both paths must
      // land on identical states.
      auto cp = FindLatestCheckpoint(*retrying);
      ASSERT_TRUE(cp.ok()) << cp.status().ToString();
      if (cp->has_value()) {
        auto restored =
            BootstrapFromCheckpoint(retrying.get(), **cp, HarnessOptions(0));
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        servers.push_back(std::move(*restored));
      } else {
        servers.push_back(
            std::make_unique<HyderServer>(retrying.get(), HarnessOptions(0)));
      }
      servers.push_back(
          std::make_unique<HyderServer>(retrying.get(), HarnessOptions(1)));
      for (auto& s : servers) {
        auto r = s->Poll();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    } else if (i > 0 && i % 17 == 0) {
      // Occasional checkpoint (quiescent after the per-op polls below).
      auto info = WriteCheckpoint(*servers[0]);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
    }

    const Op& op = ops[i];
    Transaction t = servers[op.server]->Begin();
    ASSERT_TRUE(t.Put(op.key, op.value).ok());
    auto sub = servers[op.server]->Submit(std::move(t));
    ASSERT_TRUE(sub.ok()) << "op " << i << ": " << sub.status().ToString();
    for (auto& s : servers) {
      auto r = s->Poll();
      ASSERT_TRUE(r.ok()) << "op " << i << ": " << r.status().ToString();
    }
  }
  accumulate(*fault);

  out->cluster = std::make_unique<Cluster>(retrying.get(), std::move(servers));
  out->file = std::move(*file);
  out->fault = std::move(fault);
  out->retrying = std::move(retrying);
}

TEST_F(RecoveryTest, ConvergesUnderFaultsAndCrashesAcrossSeeds) {
  const uint64_t base = EnvSeed("HYDER_RECOVERY_SEED_BASE", 1);
  const uint64_t count = EnvSeed("HYDER_RECOVERY_SEED_COUNT", 100);
  FaultTotals totals;
  for (uint64_t seed = base; seed < base + count; ++seed) {
    std::remove(path_.c_str());
    const std::vector<Op> ops = MakeOps(seed, 40);
    std::unique_ptr<Cluster> reference = RunReference(ops);

    FaultyRun run;
    RunFaulty(path_, seed, ops, &run, &totals);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "seed " << seed;
    }
    Cluster* faulty = run.cluster.get();

    // Both fault-run servers converged with each other...
    std::string diff;
    auto converged = faulty->StatesConverged(&diff);
    ASSERT_TRUE(converged.ok()) << "seed " << seed << ": "
                                << converged.status().ToString();
    EXPECT_TRUE(*converged) << "seed " << seed << ": " << diff;

    // ...and with the fault-free reference: same sequence, physically
    // identical trees — duplicates melded once, garbage skipped cleanly.
    ASSERT_EQ(faulty->server(0).LatestState().seq,
              reference->server(0).LatestState().seq)
        << "seed " << seed;
    auto same = PhysicallyEqual(&reference->server(0).resolver(),
                                reference->server(0).LatestState().root,
                                &faulty->server(0).resolver(),
                                faulty->server(0).LatestState().root, &diff);
    ASSERT_TRUE(same.ok()) << "seed " << seed;
    EXPECT_TRUE(*same) << "seed " << seed << ": " << diff;
  }
  // The schedule must actually have exercised every injected fault kind,
  // and the log must have retried the transient ones.
  EXPECT_GT(totals.counts.append_failures, 0u);
  EXPECT_GT(totals.counts.duplicate_appends, 0u);
  EXPECT_GT(totals.counts.torn_appends, 0u);
  EXPECT_GT(totals.counts.read_failures, 0u);
  EXPECT_GT(totals.retries, 0u);
}

TEST_F(RecoveryTest, DuplicateAppendBlocksNeverCommitTwice) {
  // Replay an entire committed intention's blocks (what a retry storm could
  // do at worst): the assembler must swallow every copy; the txn is decided
  // exactly once and later transactions proceed normally.
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  HyderServer server(&log, ServerOptions{});

  Transaction t = server.Begin();
  ASSERT_TRUE(t.Put(1, "once").ok());
  const uint64_t before = log.Tail();
  auto sub = server.Submit(std::move(t));
  ASSERT_TRUE(sub.ok());
  const uint64_t after = log.Tail();
  ASSERT_GT(after, before);

  // Land a second copy of every block of the intention.
  for (uint64_t pos = before; pos < after; ++pos) {
    auto block = log.Read(pos);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(log.Append(std::move(*block)).ok());
  }

  auto decisions = server.Poll();
  ASSERT_TRUE(decisions.ok()) << decisions.status().ToString();
  int decided = 0;
  for (const MeldDecision& d : *decisions) {
    if (d.txn_id == sub->txn_id) decided++;
  }
  EXPECT_EQ(decided, 1) << "the duplicated intention must meld exactly once";
  EXPECT_EQ(server.duplicate_blocks(), after - before);

  Transaction t2 = server.Begin();
  ASSERT_TRUE(t2.Put(2, "later").ok());
  auto r2 = server.Commit(std::move(t2));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
}

TEST_F(RecoveryTest, CopyOfAnEarlierIntentionFailsTheBackstop) {
  // A server retries a block before it appends the next, so no appender
  // lands a copy of its intention x after its next intention y completed.
  // The assembler drops only copies of a partial intention or of the
  // origin's last (y), so it assembles this copy of x again, and on every
  // server sharing the log the pipeline's fed-txn backstop must fail the
  // Poll rather than decide x twice.
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  HyderServer s0(&log, HarnessOptions(0));
  HyderServer s1(&log, HarnessOptions(1));
  const uint64_t x_pos = log.Tail();
  Transaction x = s0.Begin();
  ASSERT_TRUE(x.Put(1, "x").ok());
  ASSERT_TRUE(s0.Submit(std::move(x)).ok());
  ASSERT_EQ(log.Tail(), x_pos + 1) << "x must be one block";
  Transaction y = s0.Begin();
  ASSERT_TRUE(y.Put(2, "y").ok());
  ASSERT_TRUE(s0.Submit(std::move(y)).ok());

  for (HyderServer* s : {&s0, &s1}) {
    auto polled = s->Poll();
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    ASSERT_EQ(polled->size(), 2u);
    EXPECT_NE((*polled)[0].txn_id, (*polled)[1].txn_id);
  }
  auto x_copy = log.Read(x_pos);
  ASSERT_TRUE(x_copy.ok());
  ASSERT_TRUE(log.Append(std::move(*x_copy)).ok());
  for (HyderServer* s : {&s0, &s1}) {
    auto polled = s->Poll();
    EXPECT_TRUE(polled.status().IsInternal()) << polled.status().ToString();
  }
}

TEST_F(RecoveryTest, TransientReadFailuresRetriedInsidePoll) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog base(lo);
  FaultInjectionOptions fi;
  fi.seed = 99;
  fi.read_fail_p = 0.5;
  FaultInjectingLog fault(&base, fi);
  RetryingLog retrying(&fault);
  HyderServer server(&retrying, HarnessOptions(0));

  for (int i = 0; i < 20; ++i) {
    Transaction t = server.Begin();
    ASSERT_TRUE(t.Put(Key(i), "x").ok());
    ASSERT_TRUE(server.Submit(std::move(t)).ok());
    auto r = server.Poll();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_GT(fault.stats().retries, 0u)
      << "half the reads fail transiently; Poll must have retried";
  EXPECT_GT(fault.fault_counts().read_failures, 0u);
}

TEST_F(RecoveryTest, DataLossSurfacesInsteadOfMelding) {
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog base(lo);
  FaultInjectingLog fault(&base, FaultInjectionOptions{});
  HyderServer healthy(&fault, HarnessOptions(0));
  Transaction t = healthy.Begin();
  ASSERT_TRUE(t.Put(1, "precious").ok());
  ASSERT_TRUE(healthy.Submit(std::move(t)).ok());

  fault.CorruptPosition(1);
  HyderServer late(&fault, HarnessOptions(1));
  auto r = late.Poll();
  EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
}

TEST_F(RecoveryTest, RestartedServerNeverReusesTxnIds) {
  // A server that crashes and restarts under the same id must continue its
  // (server id, local seq) sequence past everything it ever logged — the
  // invariant duplicate filtering relies on.
  FileLog::Options fo;
  fo.block_size = kBlockSize;
  uint64_t last_id = 0;
  {
    auto log = FileLog::Open(path_, fo);
    ASSERT_TRUE(log.ok());
    HyderServer server(log->get(), HarnessOptions(0));
    for (int i = 0; i < 5; ++i) {
      Transaction t = server.Begin();
      last_id = t.txn_id();
      ASSERT_TRUE(t.Put(Key(i), "x").ok());
      ASSERT_TRUE(server.Submit(std::move(t)).ok());
      ASSERT_TRUE(server.Poll().ok());
    }
  }  // Crash.
  auto reopened = FileLog::Open(path_, fo);
  ASSERT_TRUE(reopened.ok());
  HyderServer restarted(reopened->get(), HarnessOptions(0));
  ASSERT_TRUE(restarted.Poll().ok());  // Replay observes own txn ids.
  Transaction t = restarted.Begin();
  EXPECT_GT(t.txn_id(), last_id)
      << "restarted server must not reuse a txn id from a prior incarnation";

  ASSERT_TRUE(t.Put(100, "fresh").ok());
  auto r = restarted.Commit(std::move(t));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST_F(RecoveryTest, CheckpointBootstrapRecoversTxnIdFloor) {
  // Same invariant through the checkpoint path: the imported directory
  // carries every pre-checkpoint txn id.
  FileLog::Options fo;
  fo.block_size = kBlockSize;
  uint64_t last_id = 0;
  {
    auto log = FileLog::Open(path_, fo);
    ASSERT_TRUE(log.ok());
    HyderServer server(log->get(), HarnessOptions(0));
    for (int i = 0; i < 5; ++i) {
      Transaction t = server.Begin();
      last_id = t.txn_id();
      ASSERT_TRUE(t.Put(Key(i), "x").ok());
      ASSERT_TRUE(server.Submit(std::move(t)).ok());
      ASSERT_TRUE(server.Poll().ok());
    }
    ASSERT_TRUE(WriteCheckpoint(server).ok());
  }
  auto reopened = FileLog::Open(path_, fo);
  ASSERT_TRUE(reopened.ok());
  auto cp = FindLatestCheckpoint(**reopened);
  ASSERT_TRUE(cp.ok());
  ASSERT_TRUE(cp->has_value());
  auto restored =
      BootstrapFromCheckpoint(reopened->get(), **cp, HarnessOptions(0));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*restored)->Poll().ok());
  Transaction t = (*restored)->Begin();
  EXPECT_GT(t.txn_id(), last_id);
}

TEST_F(RecoveryTest, TornTailBlocksSkippedIdenticallyByAllServers) {
  // A torn append leaves a prefix block in the log; every tailing server
  // must skip it (it cannot decode) and stay converged.
  StripedLogOptions lo;
  lo.block_size = kBlockSize;
  StripedLog log(lo);
  Cluster cluster(2, &log, ServerOptions{});

  Transaction t = cluster.server(0).Begin();
  ASSERT_TRUE(t.Put(1, "good").ok());
  ASSERT_TRUE(cluster.server(0).Submit(std::move(t)).ok());
  // Simulate the torn block a FaultInjectingLog would land.
  ASSERT_TRUE(log.Append("\x05garbage-prefix").ok());
  Transaction t2 = cluster.server(1).Begin();
  ASSERT_TRUE(t2.Put(2, "also good").ok());
  ASSERT_TRUE(cluster.server(1).Submit(std::move(t2)).ok());

  ASSERT_TRUE(cluster.PollAll().ok());
  std::string diff;
  auto converged = cluster.StatesConverged(&diff);
  ASSERT_TRUE(converged.ok());
  EXPECT_TRUE(*converged) << diff;
  EXPECT_EQ(cluster.server(0).skipped_blocks(), 1u);
  EXPECT_EQ(cluster.server(1).skipped_blocks(), 1u);
}

TEST_F(RecoveryTest, CrashDuringTruncationRecoversFromPersistedMark) {
  // A process crash in the truncation round's worst window: the low-water
  // mark has just been persisted (pins were installed in the servers that
  // died with the process). Durable state is the truncated FileLog plus its
  // mark sidecar; recovery must rebuild the whole cluster from that alone —
  // checkpoint bootstrap on one server, a full catch-up session on the
  // other — and re-running the interrupted truncation round must be a
  // harmless no-op.
  FileLog::Options fo;
  fo.block_size = kBlockSize;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::remove(path_.c_str());
    std::remove((path_ + ".lwm").c_str());
    const std::vector<Op> ops = MakeOps(seed, 18 + int(seed % 5));
    uint64_t low_water = 0;
    uint64_t state_seq = 0;
    {
      auto file = FileLog::Open(path_, fo);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      HyderServer s0(file->get(), HarnessOptions(0));
      HyderServer s1(file->get(), HarnessOptions(1));
      for (const Op& op : ops) {
        Transaction t = (op.server ? s1 : s0).Begin();
        ASSERT_TRUE(t.Put(op.key, op.value).ok());
        ASSERT_TRUE((op.server ? s1 : s0).Submit(std::move(t)).ok());
        ASSERT_TRUE(s0.Poll().ok());
        ASSERT_TRUE(s1.Poll().ok());
      }
      auto ckpt = WriteCheckpoint(s0);
      ASSERT_TRUE(ckpt.ok()) << "seed " << seed << ": "
                             << ckpt.status().ToString();
      ASSERT_TRUE(s0.Poll().ok());
      ASSERT_TRUE(s1.Poll().ok());
      TruncationCoordinator coordinator(file->get());
      auto truncated = coordinator.TruncateToCheckpoint(*ckpt, {&s0, &s1});
      ASSERT_TRUE(truncated.ok()) << "seed " << seed << ": "
                                  << truncated.status().ToString();
      ASSERT_GT(truncated->blocks_reclaimed, 0u) << "seed " << seed;
      low_water = (*file)->LowWaterMark();
      state_seq = ckpt->state_seq;
    }  // Crash: every in-memory structure (servers, pins, coordinator) dies.

    auto reopened = FileLog::Open(path_, fo);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->LowWaterMark(), low_water) << "seed " << seed;
    EXPECT_TRUE((*reopened)->Read(low_water - 1).status().IsTruncated());

    // One server bootstraps straight from the anchor, the other runs the
    // full catch-up state machine; both paths must agree.
    auto found = FindLatestCheckpoint(**reopened);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    ASSERT_TRUE(found->has_value()) << "seed " << seed;
    EXPECT_EQ((*found)->state_seq, state_seq) << "seed " << seed;
    auto s0 = BootstrapFromCheckpoint(reopened->get(), **found,
                                      HarnessOptions(0));
    ASSERT_TRUE(s0.ok()) << "seed " << seed << ": " << s0.status().ToString();
    CatchUpOptions co;
    co.server = HarnessOptions(1);
    co.max_fetch_rounds = 100;
    auto s1 = CatchUpServer(reopened->get(), co);
    ASSERT_TRUE(s1.ok()) << "seed " << seed << ": " << s1.status().ToString();

    // Re-running the interrupted round (the recovering operator cannot know
    // how far it got) reclaims nothing further and fails nothing.
    TruncationCoordinator coordinator(reopened->get());
    auto rerun = coordinator.TruncateToCheckpoint(
        **found, {s0->get(), s1->get()});
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->blocks_reclaimed, 0u);
    EXPECT_EQ((*reopened)->LowWaterMark(), low_water);

    for (int i = 0; i < 6; ++i) {
      Transaction t = (*s0)->Begin();
      ASSERT_TRUE(t.Put(Key(50 + i), "post-crash").ok());
      ASSERT_TRUE((*s0)->Submit(std::move(t)).ok());
      ASSERT_TRUE((*s0)->Poll().ok());
      ASSERT_TRUE((*s1)->Poll().ok());
    }
    std::string diff;
    auto equal = PhysicallyEqual(&(*s0)->resolver(),
                                 (*s0)->LatestState().root,
                                 &(*s1)->resolver(),
                                 (*s1)->LatestState().root, &diff);
    ASSERT_TRUE(equal.ok()) << "seed " << seed;
    EXPECT_TRUE(*equal) << "seed " << seed << ": " << diff;
  }
}

TEST_F(RecoveryTest, CrashDuringCatchUpCompletesOnFreshSession) {
  // A server crashes partway through its own catch-up (mid-fetch on some
  // seeds, mid-replay on others). The abandoned half-built replica must not
  // disturb the cluster, and a fresh session — the next incarnation — must
  // complete and rejoin byte-identically.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    StripedLogOptions lo;
    lo.block_size = kBlockSize;
    StripedLog log(lo);
    HyderServer veteran(&log, HarnessOptions(0));
    const std::vector<Op> ops = MakeOps(seed, 20);
    for (const Op& op : ops) {
      Transaction t = veteran.Begin();
      ASSERT_TRUE(t.Put(op.key, op.value).ok());
      ASSERT_TRUE(veteran.Submit(std::move(t)).ok());
      ASSERT_TRUE(veteran.Poll().ok());
    }
    auto ckpt = WriteCheckpoint(veteran);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    ASSERT_TRUE(veteran.Poll().ok());
    for (int i = 0; i < 10; ++i) {
      Transaction t = veteran.Begin();
      ASSERT_TRUE(t.Put(Key(60 + i), "tail").ok());
      ASSERT_TRUE(veteran.Submit(std::move(t)).ok());
      ASSERT_TRUE(veteran.Poll().ok());
    }

    {
      // First incarnation: step 0..5 times (seed-dependent crash point),
      // then die. replay_batch=1 keeps the crash inside the replay window
      // on most seeds.
      CatchUpOptions co;
      co.server = HarnessOptions(1);
      co.replay_batch = 1;
      CatchUpSession doomed(&log, co);
      for (uint64_t s = 0; s < seed % 6; ++s) {
        ASSERT_TRUE(doomed.Step().ok());
      }
    }  // Crash: the half-built replica vanishes.

    CatchUpOptions co;
    co.server = HarnessOptions(1);
    CatchUpSession session(&log, co);
    for (int step = 0; !session.done(); ++step) {
      ASSERT_LT(step, 10000) << "seed " << seed << ": did not converge";
      ASSERT_TRUE(session.Step().ok());
    }
    std::unique_ptr<HyderServer> joined = session.TakeServer();
    ASSERT_NE(joined, nullptr);
    ASSERT_EQ(joined->LatestState().seq, veteran.LatestState().seq)
        << "seed " << seed;
    std::string diff;
    auto equal = PhysicallyEqual(&veteran.resolver(),
                                 veteran.LatestState().root,
                                 &joined->resolver(),
                                 joined->LatestState().root, &diff);
    ASSERT_TRUE(equal.ok()) << "seed " << seed;
    EXPECT_TRUE(*equal) << "seed " << seed << ": " << diff;

    // The rejoined incarnation serves again.
    Transaction t = joined->Begin();
    ASSERT_TRUE(t.Put(99, "served").ok());
    ASSERT_TRUE(joined->Submit(std::move(t)).ok());
    ASSERT_TRUE(joined->Poll().ok());
  }
}

}  // namespace
}  // namespace hyder
