// Tests for the lifecycle tracer (common/trace.h), the MetricsRegistry
// (common/registry.h) and their exporters: ring wrap + drain under
// concurrent writers (the seqlock recipe the `-L tsan` suite exercises),
// the disabled path allocating nothing, the raw-dump round trip, and a
// golden-file check that the Chrome export is valid trace-event JSON.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/abort_info.h"
#include "common/registry.h"
#include "common/trace.h"

namespace hyder {
namespace {

/// Serializes tracer state across tests in this binary: the tracer is
/// process-global, so each test starts from a clean, disabled slate.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Disable();
    Tracer::Reset();
  }
  void TearDown() override {
    Tracer::Disable();
    Tracer::Reset();
  }
};

TEST_F(TraceTest, DisabledRecordsNothingAndAllocatesNothing) {
  ASSERT_FALSE(Tracer::Enabled());
  const Tracer::Stats before = Tracer::stats();
  // A thread that only ever traces while disabled must not even get a ring
  // buffer: the kill switch reduces every site to one relaxed load.
  std::thread t([] {
    for (int i = 0; i < 1000; ++i) {
      TraceInstant(TraceStage::kPublish, uint64_t(i));
      TraceSpan span(TraceStage::kFinalMeld, uint64_t(i));
    }
  });
  t.join();
  const Tracer::Stats after = Tracer::stats();
  EXPECT_EQ(after.threads, before.threads) << "disabled tracing allocated";
  EXPECT_EQ(after.recorded, before.recorded);
  EXPECT_TRUE(Tracer::Drain().empty());
}

TEST_F(TraceTest, SpanArmedAtConstructionSurvivesMidScopeDisable) {
  Tracer::Enable(64);
  {
    TraceSpan span(TraceStage::kPremeld, 7);
    Tracer::Disable();
    // Destructor must still emit the matching end event.
  }
  Tracer::Enable(64);  // Re-enable so Drain sees the buffers' content.
  std::vector<TraceEvent> events = Tracer::Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TracePhase::kBegin);
  EXPECT_EQ(events[1].phase, TracePhase::kEnd);
  EXPECT_EQ(events[0].id, 7u);
}

TEST_F(TraceTest, RingWrapDropsOldestAndCountsDrops) {
  Tracer::Enable(/*events_per_thread=*/16);
  // A thread's ring capacity is fixed at its first recording, so write from
  // a fresh thread to pick up the Enable(16) above regardless of what any
  // earlier test configured for this process's main thread.
  std::thread writer([] {
    for (uint64_t i = 0; i < 100; ++i) {
      TraceInstant(TraceStage::kPublish, i);
    }
  });
  writer.join();
  std::vector<TraceEvent> events = Tracer::Drain();
  ASSERT_EQ(events.size(), 16u);
  // The ring keeps the newest events: ids 84..99.
  EXPECT_EQ(events.front().id, 84u);
  EXPECT_EQ(events.back().id, 99u);
  const Tracer::Stats stats = Tracer::stats();
  EXPECT_EQ(stats.recorded, 100u);
  EXPECT_EQ(stats.dropped, 84u);
  EXPECT_GE(stats.threads, 1u);
}

TEST_F(TraceTest, DrainIsSafeAgainstConcurrentWrappingWriters) {
  // Small rings force continuous wrap, so drains keep racing writers on
  // the same slots — the seqlock must skip torn slots, never misread them.
  Tracer::Enable(/*events_per_thread=*/32);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        // Encode (writer, i) so a misread would produce an impossible id.
        TraceInstant(TraceStage::kDecode, uint64_t(w) * kPerWriter + i);
      }
    });
  }
  uint64_t drains = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<TraceEvent> events = Tracer::Drain();
    drains++;
    for (const TraceEvent& e : events) {
      ASSERT_EQ(e.stage, TraceStage::kDecode);
      ASSERT_EQ(e.phase, TracePhase::kInstant);
      ASSERT_LT(e.id, uint64_t(kWriters) * kPerWriter);
      ASSERT_NE(e.ts_nanos, 0u);
    }
    bool all_done = true;
    for (auto& t : writers) {
      if (t.joinable() && drains < 50) all_done = false;
    }
    if (all_done || drains >= 50) stop.store(true);
  }
  for (auto& t : writers) t.join();
  // After the writers quiesce, a final drain sees exactly the ring tails.
  std::vector<TraceEvent> events = Tracer::Drain();
  EXPECT_EQ(events.size(), size_t(kWriters) * 32);
  const Tracer::Stats stats = Tracer::stats();
  EXPECT_EQ(stats.recorded, uint64_t(kWriters) * kPerWriter);
}

TEST_F(TraceTest, DumpRoundTrip) {
  Tracer::Enable(64);
  TraceInstant(TraceStage::kSubmit, 42);
  {
    TraceSpan span(TraceStage::kAppend, 42);
  }
  TraceInstant(TraceStage::kDurable, 42);
  // Abort instants carry their cause as the stage-specific arg; it must
  // survive the dump round trip.
  TraceInstant(TraceStage::kAbort, 42,
               uint32_t(AbortCause::kAbortWriteWrite));
  std::vector<TraceEvent> events = Tracer::Drain();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.back().arg, uint32_t(AbortCause::kAbortWriteWrite));

  const std::string dump = SerializeTraceDump(events);
  auto parsed = ParseTraceDump(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*parsed)[i].ts_nanos, events[i].ts_nanos);
    EXPECT_EQ((*parsed)[i].id, events[i].id);
    EXPECT_EQ((*parsed)[i].tid, events[i].tid);
    EXPECT_EQ((*parsed)[i].stage, events[i].stage);
    EXPECT_EQ((*parsed)[i].phase, events[i].phase);
    EXPECT_EQ((*parsed)[i].arg, events[i].arg);
  }
}

TEST_F(TraceTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTraceDump("not a trace").ok());
  EXPECT_FALSE(ParseTraceDump("# hyder-trace v2\n1 0 bogus B 1 0\n").ok());
  EXPECT_TRUE(ParseTraceDump("# hyder-trace v2\n").ok());
}

TEST_F(TraceTest, ParseRejectsV1Dumps) {
  // Pre-arg dumps (5 columns, `# hyder-trace v1`) are refused by their
  // header, and a 5-column line is unparseable under the v2 one.
  auto v1 = ParseTraceDump("# hyder-trace v1\n1000 0 submit I 42\n");
  EXPECT_TRUE(v1.status().IsNotSupported()) << v1.status().ToString();
  auto short_line = ParseTraceDump("# hyder-trace v2\n1000 0 submit I 42\n");
  EXPECT_TRUE(short_line.status().IsInvalidArgument())
      << short_line.status().ToString();
}

TEST_F(TraceTest, StageNamesRoundTrip) {
  for (int s = 0; s < kTraceStageCount; ++s) {
    const TraceStage stage = TraceStage(s);
    TraceStage back;
    ASSERT_TRUE(TraceStageFromName(TraceStageName(stage), &back));
    EXPECT_EQ(back, stage);
  }
  TraceStage unused;
  EXPECT_FALSE(TraceStageFromName("not_a_stage", &unused));
}

// Minimal JSON syntax validator: enough to prove the Chrome export is
// well-formed (balanced structure, quoted strings, no trailing commas) —
// tools/check_trace.py does the full schema check in CI.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    pos_++;  // '{'
    SkipSpace();
    if (Peek() == '}') { pos_++; return true; }
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      pos_++;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { pos_++; continue; }
      if (Peek() == '}') { pos_++; return true; }
      return false;
    }
  }
  bool Array() {
    pos_++;  // '['
    SkipSpace();
    if (Peek() == ']') { pos_++; return true; }
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { pos_++; continue; }
      if (Peek() == ']') { pos_++; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    pos_++;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') pos_++;
      pos_++;
    }
    if (pos_ >= text_.size()) return false;
    pos_++;
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(text_[pos_]) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      pos_++;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::string s(lit);
    if (text_.compare(pos_, s.size(), s) != 0) return false;
    pos_ += s.size();
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(text_[pos_])) pos_++;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST_F(TraceTest, ChromeTraceJsonGolden) {
  // Hand-built events with fixed timestamps: the export must match
  // byte for byte (timestamps rebased to the earliest event, µs units).
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent{1000, 5, 0, 0, TraceStage::kSubmit,
                              TracePhase::kInstant});
  events.push_back(TraceEvent{2000, 5, 0, 0, TraceStage::kAppend,
                              TracePhase::kBegin});
  events.push_back(TraceEvent{5000, 5, 0, 0, TraceStage::kAppend,
                              TracePhase::kEnd});
  const std::string json = ChromeTraceJson(events);

  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"submit\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"append\"}},\n"
      "{\"name\":\"submit\",\"cat\":\"pipeline\",\"ph\":\"i\",\"pid\":1,"
      "\"tid\":0,\"ts\":0.000,\"s\":\"t\",\"args\":{\"id\":5}},\n"
      "{\"name\":\"append\",\"cat\":\"pipeline\",\"ph\":\"B\",\"pid\":1,"
      "\"tid\":1,\"ts\":1.000,\"args\":{\"id\":5}},\n"
      "{\"name\":\"append\",\"cat\":\"pipeline\",\"ph\":\"E\",\"pid\":1,"
      "\"tid\":1,\"ts\":4.000,\"args\":{\"id\":5}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(json, expected);
}

TEST_F(TraceTest, ChromeTraceJsonFromLiveRunParses) {
  Tracer::Enable(1024);
  std::thread worker([] {
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      TraceSpan premeld(TraceStage::kPremeld, seq);
    }
  });
  worker.join();
  for (uint64_t seq = 1; seq <= 20; ++seq) {
    TraceSpan fm(TraceStage::kFinalMeld, seq);
    TraceInstant(TraceStage::kPublish, seq);
  }
  const std::string json = ChromeTraceJson(Tracer::Drain());
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // Distinct recording threads for one stage get distinct tracks.
  EXPECT_NE(json.find("\"premeld"), std::string::npos);
  EXPECT_NE(json.find("\"final_meld"), std::string::npos);
}

TEST(MetricsRegistryTest, ProvidersAndHistograms) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.histogram("test.lat_us");
  EXPECT_EQ(registry.histogram("test.lat_us"), h);  // Create-or-get.
  h->Add(100);
  h->Add(300);

  {
    ProviderHandle h = registry.RegisterProvider(
        "sub", [](const MetricsRegistry::Emit& emit) {
          emit("gauge", 7.5);
        });
    ProviderHandle h2 = registry.RegisterProvider(
        "sub", [](const MetricsRegistry::Emit& emit) {
          emit("gauge", 1.0);
        });
    const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
    ASSERT_EQ(snap.values.size(), 2u);
    // Sorted by name; '#' < '.' in ASCII, so the uniquified second
    // registration ("sub#2") sorts ahead of the first.
    EXPECT_EQ(snap.values[0].first, "sub#2.gauge");
    EXPECT_EQ(snap.values[1].first, "sub.gauge");
    EXPECT_EQ(snap.values[1].second, 7.5);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].second.count(), 2u);

    const std::string text = registry.DumpMetrics();
    EXPECT_NE(text.find("sub.gauge 7.5\n"), std::string::npos);
  }
  // Handles out of scope: providers must be gone.
  EXPECT_TRUE(registry.TakeSnapshot().values.empty());

  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalIsStableAndConcurrent) {
  LatencyHistogram* h = MetricsRegistry::Global().histogram("trace_test.hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        MetricsRegistry::Global().histogram("trace_test.hits")->Add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(h->snapshot().count(), 4000u);
}

}  // namespace
}  // namespace hyder
