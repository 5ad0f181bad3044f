#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "log/corfu_sim.h"
#include "log/fault_log.h"
#include "log/retrying_log.h"
#include "log/striped_log.h"
#include "server/server.h"

namespace hyder {
namespace {

StripedLogOptions SmallLog() {
  StripedLogOptions o;
  o.block_size = 256;
  o.storage_units = 3;
  return o;
}

TEST(StripedLogTest, AppendAssignsSequentialPositions) {
  StripedLog log(SmallLog());
  for (uint64_t i = 1; i <= 10; ++i) {
    auto pos = log.Append("block" + std::to_string(i));
    ASSERT_TRUE(pos.ok());
    EXPECT_EQ(*pos, i);
  }
  EXPECT_EQ(log.Tail(), 11u);
}

TEST(StripedLogTest, ReadReturnsAppendedBlock) {
  StripedLog log(SmallLog());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(log.Append("payload-" + std::to_string(i)).ok());
  }
  for (int i = 1; i <= 20; ++i) {
    auto block = log.Read(i);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(*block, "payload-" + std::to_string(i));
  }
}

TEST(StripedLogTest, ReadPastTailFails) {
  StripedLog log(SmallLog());
  EXPECT_TRUE(log.Read(1).status().IsNotFound());
  ASSERT_TRUE(log.Append("x").ok());
  EXPECT_TRUE(log.Read(0).status().IsNotFound());
  EXPECT_TRUE(log.Read(2).status().IsNotFound());
  EXPECT_TRUE(log.Read(1).ok());
}

TEST(StripedLogTest, OversizedBlockRejected) {
  StripedLog log(SmallLog());
  std::string big(257, 'x');
  EXPECT_TRUE(log.Append(big).status().IsInvalidArgument());
}

TEST(StripedLogTest, StripesAcrossUnits) {
  StripedLog log(SmallLog());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(log.Append("0123456789").ok());
  for (int u = 0; u < 3; ++u) {
    EXPECT_EQ(log.UnitBytes(u), 100u) << "unit " << u;
  }
}

TEST(StripedLogTest, StatsCount) {
  StripedLog log(SmallLog());
  ASSERT_TRUE(log.Append("abc").ok());
  ASSERT_TRUE(log.Append("defgh").ok());
  ASSERT_TRUE(log.Read(1).ok());
  LogStats s = log.stats();
  EXPECT_EQ(s.appends, 2u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.bytes_appended, 8u);
}

TEST(StripedLogTest, ConcurrentAppendsGetUniquePositions) {
  StripedLogOptions o;
  o.block_size = 64;
  o.storage_units = 6;
  StripedLog log(o);
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::vector<uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto pos = log.Append("t" + std::to_string(t));
        ASSERT_TRUE(pos.ok());
        got[t].push_back(*pos);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<uint64_t> all;
  for (auto& v : got) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 1);
  // Per-thread positions must be monotone (total order respected).
  for (auto& v : got) {
    for (size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i - 1], v[i]);
  }
}

CorfuSimOptions QuickSim() {
  CorfuSimOptions o;
  o.duration_ns = 300'000'000;  // 0.3 simulated seconds.
  o.warmup_ns = 50'000'000;
  return o;
}

TEST(FaultLogTest, PassThroughWhenNoFaults) {
  StripedLog base(SmallLog());
  FaultInjectingLog log(&base, FaultInjectionOptions{});
  auto pos = log.Append("clean");
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, 1u);
  auto block = log.Read(1);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(*block, "clean");
  EXPECT_EQ(log.Tail(), 2u);
  LogStats s = log.stats();
  EXPECT_EQ(s.appends, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.errors, 0u);
}

TEST(FaultLogTest, AppendFailureLandsNothing) {
  StripedLog base(SmallLog());
  FaultInjectionOptions o;
  o.append_fail_p = 1.0;
  FaultInjectingLog log(&base, o);
  auto r = log.Append("doomed");
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(base.Tail(), 1u) << "a failed append must land nothing";
  EXPECT_EQ(log.fault_counts().append_failures, 1u);
}

TEST(FaultLogTest, DuplicateAppendLandsBlockDespiteError) {
  // The ambiguous-append case: the caller sees Unavailable, yet the block
  // is in the log — a retry would land a second copy.
  StripedLog base(SmallLog());
  FaultInjectionOptions o;
  o.append_duplicate_p = 1.0;
  FaultInjectingLog log(&base, o);
  auto r = log.Append("ghost");
  EXPECT_TRUE(r.status().IsUnavailable());
  ASSERT_EQ(base.Tail(), 2u) << "the block must have landed";
  auto landed = base.Read(1);
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(*landed, "ghost");
  EXPECT_EQ(log.fault_counts().duplicate_appends, 1u);
}

TEST(FaultLogTest, TornAppendLandsStrictPrefix) {
  StripedLog base(SmallLog());
  FaultInjectionOptions o;
  o.append_torn_p = 1.0;
  FaultInjectingLog log(&base, o);
  const std::string block = "0123456789abcdef";
  auto r = log.Append(block);
  EXPECT_TRUE(r.status().IsUnavailable());
  ASSERT_EQ(base.Tail(), 2u);
  auto landed = base.Read(1);
  ASSERT_TRUE(landed.ok());
  EXPECT_LT(landed->size(), block.size()) << "must be a strict prefix";
  EXPECT_GE(landed->size(), 1u);
  EXPECT_EQ(*landed, block.substr(0, landed->size()));
  EXPECT_EQ(log.fault_counts().torn_appends, 1u);
}

TEST(FaultLogTest, DataLossIsSticky) {
  StripedLog base(SmallLog());
  ASSERT_TRUE(base.Append("will-decay").ok());
  FaultInjectionOptions o;
  o.read_dataloss_p = 1.0;
  FaultInjectingLog log(&base, o);
  EXPECT_TRUE(log.Read(1).status().IsDataLoss());
  // Decay is permanent, like a real medium error — not a transient blip.
  EXPECT_TRUE(log.Read(1).status().IsDataLoss());
  EXPECT_EQ(log.fault_counts().dataloss_reads, 2u);
}

TEST(FaultLogTest, CorruptPositionForcesDataLoss) {
  StripedLog base(SmallLog());
  ASSERT_TRUE(base.Append("a").ok());
  ASSERT_TRUE(base.Append("b").ok());
  FaultInjectingLog log(&base, FaultInjectionOptions{});
  ASSERT_TRUE(log.Read(2).ok());
  log.CorruptPosition(2);
  EXPECT_TRUE(log.Read(2).status().IsDataLoss());
  EXPECT_TRUE(log.Read(1).ok()) << "other positions stay healthy";
}

TEST(FaultLogTest, DeterministicForSameSeed) {
  // Identical (seed, operation sequence) pairs must produce identical fault
  // schedules — the property the recovery harness's reproducibility rests on.
  for (int run = 0; run < 2; ++run) {
    StripedLog base_a(SmallLog()), base_b(SmallLog());
    FaultInjectionOptions o;
    o.seed = 42;
    o.append_fail_p = 0.2;
    o.append_duplicate_p = 0.2;
    o.append_torn_p = 0.2;
    o.read_fail_p = 0.3;
    FaultInjectingLog a(&base_a, o), b(&base_b, o);
    for (int i = 0; i < 200; ++i) {
      auto ra = a.Append("block-" + std::to_string(i));
      auto rb = b.Append("block-" + std::to_string(i));
      EXPECT_EQ(ra.ok(), rb.ok()) << "op " << i;
      if (!ra.ok()) EXPECT_EQ(ra.status().code(), rb.status().code());
    }
    for (uint64_t p = 1; p < a.Tail(); ++p) {
      auto ra = a.Read(p);
      auto rb = b.Read(p);
      EXPECT_EQ(ra.ok(), rb.ok()) << "pos " << p;
    }
    auto ca = a.fault_counts(), cb = b.fault_counts();
    EXPECT_EQ(ca.append_failures, cb.append_failures);
    EXPECT_EQ(ca.duplicate_appends, cb.duplicate_appends);
    EXPECT_EQ(ca.torn_appends, cb.torn_appends);
    EXPECT_EQ(ca.read_failures, cb.read_failures);
    EXPECT_EQ(base_a.Tail(), base_b.Tail());
  }
}

TEST(FaultLogTest, RecordRetryCountsInWrapperAndBase) {
  StripedLog base(SmallLog());
  FaultInjectingLog log(&base, FaultInjectionOptions{});
  log.RecordRetry();
  log.RecordRetry();
  EXPECT_EQ(log.stats().retries, 2u);
  EXPECT_EQ(base.stats().retries, 2u);
}

/// Fails every append and read with one status, counting the attempts.
class FailingLog final : public SharedLog {
 public:
  explicit FailingLog(Status status) : status_(std::move(status)) {}
  Result<uint64_t> Append(std::string) override {
    attempts_++;
    return status_;
  }
  Result<std::string> Read(uint64_t) override {
    attempts_++;
    return status_;
  }
  uint64_t Tail() const override { return 1; }
  size_t block_size() const override { return 256; }
  int attempts() const { return attempts_; }

 private:
  const Status status_;
  int attempts_ = 0;
};

/// Lands every append in `base` but loses the acknowledgement of the first
/// `lost` of them: the ambiguous append FaultInjectingLog's
/// `append_duplicate_p` draws at random, here at a known position.
class LostAckLog final : public SharedLog {
 public:
  LostAckLog(SharedLog* base, int lost) : base_(base), lost_(lost) {}
  Result<uint64_t> Append(std::string block) override {
    Result<uint64_t> landed = base_->Append(std::move(block));
    if (!landed.ok() || lost_ == 0) return landed;
    lost_--;
    return Status::Unavailable("append acknowledgement lost");
  }
  Result<std::string> Read(uint64_t position) override {
    return base_->Read(position);
  }
  uint64_t Tail() const override { return base_->Tail(); }
  size_t block_size() const override { return base_->block_size(); }
  void RecordRetry() override { base_->RecordRetry(); }

 private:
  SharedLog* const base_;
  int lost_;
};

TEST(RetryingLogTest, TransientAppendFailureRetriedUntilTheBlockLands) {
  StripedLog base(SmallLog());
  FaultInjectionOptions o;
  o.seed = 7;
  o.append_fail_p = 0.25;
  FaultInjectingLog fault(&base, o);
  RetryingLog log(&fault);
  for (uint64_t i = 1; i <= 20; ++i) {
    auto pos = log.Append("block-" + std::to_string(i));
    ASSERT_TRUE(pos.ok()) << pos.status().ToString();
    EXPECT_EQ(*pos, i) << "a failed append lands nothing";
  }
  EXPECT_EQ(base.Tail(), 21u);
  EXPECT_GT(fault.fault_counts().append_failures, 0u);
  // Every failure was retried, and each retry reached the inner log.
  EXPECT_EQ(fault.stats().retries, fault.fault_counts().append_failures);
  EXPECT_EQ(log.stats().retries, fault.stats().retries);
}

TEST(RetryingLogTest, LostAckAppendReturnsTheSecondCopysPosition) {
  StripedLog base(SmallLog());
  LostAckLog lossy(&base, /*lost=*/1);
  RetryingLog log(&lossy);
  auto pos = log.Append("ghost");
  ASSERT_TRUE(pos.ok()) << pos.status().ToString();
  EXPECT_EQ(*pos, 2u);
  ASSERT_EQ(base.Tail(), 3u) << "the original and the retried copy";
  EXPECT_EQ(*base.Read(1), "ghost");
  EXPECT_EQ(*base.Read(2), "ghost");
  EXPECT_EQ(base.stats().retries, 1u);
}

TEST(RetryingLogTest, LostAckCopyMeldsOnceOnATailingServer) {
  StripedLogOptions lo;
  lo.block_size = 1024;
  StripedLog base(lo);
  LostAckLog lossy(&base, /*lost=*/1);
  RetryingLog log(&lossy);
  HyderServer writer(&log, ServerOptions{});
  Transaction t = writer.Begin();
  ASSERT_TRUE(t.Put(1, "once").ok());
  auto sub = writer.Submit(std::move(t));
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  ASSERT_EQ(base.Tail(), 3u) << "one block, landed twice";

  ServerOptions reader_options;
  reader_options.server_id = 1;
  HyderServer reader(&base, reader_options);
  auto decisions = reader.Poll();
  ASSERT_TRUE(decisions.ok()) << decisions.status().ToString();
  ASSERT_EQ(decisions->size(), 1u);
  EXPECT_EQ((*decisions)[0].txn_id, sub->txn_id);
  EXPECT_TRUE((*decisions)[0].committed);
  EXPECT_EQ(reader.duplicate_blocks(), 1u);
}

TEST(RetryingLogTest, DeterministicErrorsReturnAfterOneAttempt) {
  for (const Status& status :
       {Status::DataLoss("decayed"), Status::Corruption("bad bytes"),
        Status::NotFound("past the tail"), Status::Truncated("reclaimed")}) {
    FailingLog failing(status);
    RetryingLog log(&failing);
    EXPECT_EQ(log.Append("b").status().code(), status.code());
    EXPECT_EQ(log.Read(1).status().code(), status.code());
    EXPECT_EQ(failing.attempts(), 2) << status.ToString();
  }
  // FailNextAppends' forced outage is Internal: had it been retried, the
  // second attempt would have landed the block.
  StripedLog base(SmallLog());
  FaultInjectingLog fault(&base, FaultInjectionOptions{});
  RetryingLog log(&fault);
  fault.FailNextAppends(1);
  EXPECT_TRUE(log.Append("b").status().IsInternal());
  EXPECT_EQ(base.Tail(), 1u);
  EXPECT_EQ(fault.stats().retries, 0u);
}

TEST(RetryingLogTest, UnavailableReadGivesUpAfterEightAttempts) {
  StripedLog base(SmallLog());
  ASSERT_TRUE(base.Append("x").ok());
  FaultInjectionOptions o;
  o.read_fail_p = 1.0;
  FaultInjectingLog fault(&base, o);
  RetryingLog log(&fault);
  EXPECT_TRUE(log.Read(1).status().IsUnavailable());
  EXPECT_EQ(fault.fault_counts().read_failures, 8u);
  EXPECT_EQ(fault.stats().retries, 7u);
  EXPECT_EQ(RetryingLog::kMaxAttempts, 8);
}

TEST(RetryingLogTest, ForwardsEveryOtherCall) {
  StripedLog base(SmallLog());
  RetryingLog log(&base);
  ASSERT_TRUE(log.Append("a").ok());
  ASSERT_TRUE(log.Append("b").ok());
  EXPECT_EQ(log.Tail(), 3u);
  EXPECT_EQ(log.block_size(), base.block_size());
  ASSERT_TRUE(log.Truncate(2).ok());
  EXPECT_EQ(base.LowWaterMark(), 2u);
  EXPECT_EQ(log.LowWaterMark(), 2u);
  EXPECT_TRUE(log.Read(1).status().IsTruncated());
  log.RecordRetry();
  EXPECT_EQ(base.stats().retries, 1u);
  EXPECT_EQ(log.stats().appends, 2u);
}

TEST(CorfuSimTest, ThroughputScalesWithClientsUntilSaturation) {
  CorfuSimOptions o = QuickSim();
  o.clients = 1;
  double one = SimulateCorfuAppends(o).appends_per_sec;
  o.clients = 4;
  double four = SimulateCorfuAppends(o).appends_per_sec;
  EXPECT_GT(four, one * 1.5) << "more clients must add throughput pre-knee";
}

TEST(CorfuSimTest, SaturatesNearUnitCapacity) {
  CorfuSimOptions o = QuickSim();
  o.clients = 12;
  o.threads_per_client = 30;
  double tput = SimulateCorfuAppends(o).appends_per_sec;
  const double capacity =
      double(o.storage_units) * 1e9 / double(o.unit_service_ns);
  EXPECT_GT(tput, capacity * 0.85);
  EXPECT_LE(tput, capacity * 1.05);
}

TEST(CorfuSimTest, LatencyGrowsWithLoad) {
  CorfuSimOptions o = QuickSim();
  o.clients = 1;
  auto light = SimulateCorfuAppends(o);
  o.clients = 10;
  o.threads_per_client = 30;
  auto heavy = SimulateCorfuAppends(o);
  EXPECT_GT(heavy.latency_us.Percentile(99), light.latency_us.Percentile(99));
  // Unloaded latency is the raw path: 4 network hops + services.
  const uint64_t floor_us =
      (4 * o.network_oneway_ns + o.sequencer_service_ns + o.unit_service_ns) /
      1000;
  EXPECT_GE(light.latency_us.Percentile(50), floor_us - 2);
}

TEST(CorfuSimTest, DeterministicAcrossRuns) {
  CorfuSimOptions o = QuickSim();
  o.clients = 3;
  auto a = SimulateCorfuAppends(o);
  auto b = SimulateCorfuAppends(o);
  EXPECT_EQ(a.appends_per_sec, b.appends_per_sec);
  EXPECT_EQ(a.latency_us.Percentile(99), b.latency_us.Percentile(99));
}

}  // namespace
}  // namespace hyder
