// Open-loop arrival schedules and the coordinated-omission-safe driver:
// the schedule is precomputed and deterministic (it never bends to the
// system's speed), every arrival is accounted for exactly once, and shed
// load surfaces as typed kAbortBusy decisions instead of vanishing.

#include "server/open_loop.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "log/striped_log.h"
#include "workload/arrival.h"

namespace hyder {
namespace {

StripedLogOptions TestLog() {
  StripedLogOptions o;
  o.block_size = 2048;
  o.storage_units = 3;
  return o;
}

TEST(ArrivalScheduleTest, PoissonIsDeterministicPerSeed) {
  ArrivalOptions opt;
  opt.rate_tps = 5000.0;
  opt.count = 500;
  opt.seed = 99;
  auto a = BuildArrivalSchedule(opt);
  auto b = BuildArrivalSchedule(opt);
  EXPECT_EQ(a, b) << "same seed must reproduce the schedule bit-for-bit";
  opt.seed = 100;
  EXPECT_NE(BuildArrivalSchedule(opt), a);
}

TEST(ArrivalScheduleTest, PoissonIsMonotoneWithPlausibleMean) {
  ArrivalOptions opt;
  opt.rate_tps = 10000.0;  // 100us mean gap.
  opt.count = 2000;
  auto s = BuildArrivalSchedule(opt);
  ASSERT_EQ(s.size(), 2000u);
  for (size_t i = 1; i < s.size(); ++i) {
    EXPECT_GE(s[i], s[i - 1]) << "intended starts must be non-decreasing";
  }
  // Mean inter-arrival within 15% of 1/rate — loose, but a wrong unit or
  // a wrong exponential would miss by orders of magnitude.
  const double mean_gap = double(s.back() - s.front()) / double(s.size() - 1);
  EXPECT_GT(mean_gap, 85'000.0);
  EXPECT_LT(mean_gap, 115'000.0);
}

Status FillWrite(Rng& rng, Transaction& txn) {
  return txn.Put(rng.Uniform(50), "v");
}

TEST(OpenLoopDriverTest, EveryArrivalAccountedExactlyOnce) {
  StripedLog log(TestLog());
  ServerOptions so;
  HyderServer server(&log, so);
  Transaction seed = server.Begin();
  for (Key k = 0; k < 50; ++k) ASSERT_TRUE(seed.Put(k, "g").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());

  OpenLoopOptions opt;
  opt.label = "open_loop_test";
  Rng rng(7);
  OpenLoopDriver driver(&server, opt, [&rng](Transaction& txn) {
    return FillWrite(rng, txn);
  });
  ArrivalOptions arr;
  arr.rate_tps = 50'000.0;  // Deliberately faster than one core melds.
  arr.count = 300;
  auto report = driver.Run(BuildArrivalSchedule(arr));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->arrivals, 300u);
  EXPECT_EQ(report->arrivals,
            report->committed + report->aborted + report->read_only +
                report->busy_rejected + report->undecided)
      << "open-loop accounting must partition the arrivals";
  // CO-safety: every decided-or-shed transaction contributes a latency
  // sample measured from its intended start.
  EXPECT_EQ(report->latency_us.count(),
            report->arrivals - report->undecided);
  EXPECT_GT(report->committed, 0u);
  EXPECT_GT(report->offered_tps, 0.0);
  EXPECT_GT(report->goodput_tps, 0.0);
  EXPECT_GT(report->elapsed_seconds, 0.0);
}

TEST(OpenLoopDriverTest, ShedLoadIsTypedBusyNotForgotten) {
  StripedLog log(TestLog());
  ServerOptions so;
  so.max_inflight = 1;  // Admission control sheds nearly everything.
  HyderServer server(&log, so);
  Transaction seed = server.Begin();
  for (Key k = 0; k < 50; ++k) ASSERT_TRUE(seed.Put(k, "g").ok());
  ASSERT_TRUE(server.Commit(std::move(seed)).ok());

  OpenLoopOptions opt;
  opt.label = "open_loop_busy_test";
  Rng rng(8);
  OpenLoopDriver driver(&server, opt, [&rng](Transaction& txn) {
    return FillWrite(rng, txn);
  });
  ArrivalOptions arr;
  arr.rate_tps = 200'000.0;
  arr.count = 200;
  auto report = driver.Run(BuildArrivalSchedule(arr));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GT(report->busy_rejected, 0u);
  EXPECT_EQ(report->busy_rejected,
            report->aborts_by_cause[size_t(AbortCause::kAbortBusy)])
      << "every shed arrival must be a typed kAbortBusy decision";
  // Shed transactions still have CO-safe latencies (from intended start).
  EXPECT_EQ(report->latency_us.count(),
            report->arrivals - report->undecided);
  // The run's histogram is also published to the registry for
  // --metrics-json / slo_report.py.
  LatencyHistogram* hist = MetricsRegistry::Global().histogram(
      "slo.decision_latency_us.open_loop_busy_test");
  EXPECT_EQ(hist->snapshot().count(), report->latency_us.count());
}

}  // namespace
}  // namespace hyder
