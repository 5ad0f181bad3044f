#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/varint.h"

namespace hyder {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::Aborted("conflict on key 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "Aborted: conflict on key 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_FALSE(StatusCodeName(static_cast<StatusCode>(c)).empty());
  }
}

TEST(StatusTest, EqualityIgnoresMessage) {
  EXPECT_EQ(Status::Aborted("a"), Status::Aborted("b"));
  EXPECT_FALSE(Status::Aborted("a") == Status::NotFound("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  HYDER_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(Status::Busy("no")).status().IsBusy());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Rng rng(42);
  ZipfGenerator zipf(1000, 0.99);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) low += (zipf.Next(rng) < 10);
  // Under theta=0.99 the top-10 of 1000 items gets a large share.
  EXPECT_GT(double(low) / double(total), 0.25);
}

TEST(ZipfTest, StaysInRange) {
  Rng rng(5);
  ZipfGenerator zipf(100, 0.5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 100u);
}

TEST(HotspotTest, UniformWhenFractionOne) {
  Rng rng(9);
  HotspotGenerator h(1000, 1.0);
  uint64_t low = 0;
  for (int i = 0; i < 20000; ++i) low += (h.Next(rng) < 100);
  EXPECT_NEAR(double(low) / 20000.0, 0.1, 0.02);
}

TEST(HotspotTest, SkewMatchesPaperDefinition) {
  // Fraction x of items receives fraction (1-x) of accesses (§6.4.5).
  Rng rng(13);
  const double x = 0.05;
  HotspotGenerator h(10000, x);
  uint64_t hot = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hot += (h.Next(rng) < uint64_t(10000 * x));
  EXPECT_NEAR(double(hot) / n, 1.0 - x, 0.02);
}

TEST(HistogramTest, PercentilesOnUniformData) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(double(h.Percentile(50)), 5000, 5000 * 0.08);
  EXPECT_NEAR(double(h.Percentile(99)), 9900, 9900 * 0.08);
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(10);
  for (int i = 0; i < 100; ++i) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LE(a.Percentile(40), 12u);
  EXPECT_GE(a.Percentile(90), 900u);
}

TEST(HistogramTest, SelfMergeIsNoOp) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(i);
  h.Merge(h);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max(), 99u);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(VarintTest, RoundTripsBoundaries) {
  std::vector<uint64_t> values = {0,    1,    127,  128,   16383, 16384,
                                  1u << 20, (1ull << 32) - 1, 1ull << 32,
                                  ~0ull};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  const char* p = buf.data();
  const char* limit = buf.data() + buf.size();
  for (uint64_t v : values) {
    uint64_t got = 0;
    p = GetVarint64(p, limit, &got);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, limit);
}

TEST(VarintTest, TruncationReturnsNull) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  uint64_t v;
  EXPECT_EQ(GetVarint64(buf.data(), buf.data() + 2, &v), nullptr);
}

TEST(VarintTest, ZigZag) {
  for (int64_t v : {int64_t(0), int64_t(-1), int64_t(1), int64_t(-12345),
                    int64_t(1) << 40, -(int64_t(1) << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(VarintTest, Fixed32) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
}

TEST(QueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.Pop(), i);
}

TEST(QueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(QueueTest, BlockingHandoffAcrossThreads) {
  BoundedQueue<int> q(1);
  std::vector<int> got;
  std::thread consumer([&] {
    while (auto v = q.Pop()) got.push_back(*v);
  });
  for (int i = 0; i < 100; ++i) q.Push(i);
  q.Close();
  consumer.join();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
}

// Only a push or pop that sleeps is booked, counted as its sleep starts.
TEST(QueueTest, CountsOnlySleepingPushesAndPops) {
  BoundedQueue<int> q(1);
  std::optional<int> first;
  std::thread consumer([&] { first = q.Pop(); });
  while (q.stats().blocked_pops == 0) std::this_thread::yield();
  ASSERT_TRUE(q.Push(1));
  consumer.join();
  ASSERT_TRUE(q.Push(2));
  std::thread producer([&] { EXPECT_TRUE(q.Push(3)); });
  while (q.stats().blocked_pushes == 0) std::this_thread::yield();
  EXPECT_EQ(q.Pop(), 2);
  producer.join();
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(q.stats().blocked_pops, 1u);
  EXPECT_EQ(q.stats().blocked_pushes, 1u);
}

TEST(SimClockTest, RunsEventsInTimeOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.ScheduleAt(30, [&] { order.push_back(3); });
  clock.ScheduleAt(10, [&] { order.push_back(1); });
  clock.ScheduleAt(20, [&] { order.push_back(2); });
  clock.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 30u);
}

TEST(SimClockTest, SameInstantStableOrder) {
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) clock.ScheduleAt(5, [&, i] { order.push_back(i); });
  clock.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimClockTest, EventsScheduleEvents) {
  SimClock clock;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) clock.ScheduleAfter(100, chain);
  };
  clock.ScheduleAfter(100, chain);
  clock.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(clock.now(), 500u);
}

TEST(SimClockTest, RunUntilStopsAtDeadline) {
  SimClock clock;
  int fired = 0;
  clock.ScheduleAt(10, [&] { fired++; });
  clock.ScheduleAt(100, [&] { fired++; });
  clock.RunUntil(50);
  EXPECT_EQ(fired, 1);
  clock.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(MixTest, Mix64Avalanches) {
  // Flipping one input bit should flip ~half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t a = Mix64(12345);
    uint64_t b = Mix64(12345 ^ (1ull << bit));
    total += __builtin_popcountll(a ^ b);
  }
  EXPECT_NEAR(total / 64.0, 32.0, 6.0);
}

}  // namespace
}  // namespace hyder
