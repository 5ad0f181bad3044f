#include "common/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "common/abort_info.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace hyder {

std::atomic<bool> Tracer::enabled_{false};

namespace {

const char* const kStageNames[kTraceStageCount] = {
    "submit",      "append",     "durable",    "decode",  "premeld",
    "handoff_wait", "group_meld", "final_meld", "publish", "abort",
};

/// One thread's ring buffer. The owning thread is the only writer; Drain
/// reads concurrently through the per-slot seqlock.
struct ThreadBuffer {
  ThreadBuffer(uint32_t tid_in, size_t capacity_in)
      : tid(tid_in), capacity(capacity_in), slots(capacity_in) {}

  struct Slot {
    /// Seqlock version: odd while the owner rewrites the payload words.
    std::atomic<uint64_t> ver{0};
    std::atomic<uint64_t> ts{0};
    std::atomic<uint64_t> id{0};
    /// arg << 32 | tid << 16 | stage << 8 | phase. The high half is free
    /// for the 32-bit event arg because readers take the tid from the
    /// owning buffer, not from meta.
    std::atomic<uint64_t> meta{0};
  };

  const uint32_t tid;
  const size_t capacity;
  /// Events ever recorded by this thread; slot for event n is n % capacity.
  std::atomic<uint64_t> count{0};
  std::vector<Slot> slots;
};

struct TracerState {
  Mutex mu;
  /// Owned for the process lifetime so drained traces include events from
  /// threads that have already exited (premeld workers join before drain).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers GUARDED_BY(mu);
  size_t events_per_thread GUARDED_BY(mu) = 1 << 16;
};

TracerState& State() {
  static TracerState* state = new TracerState();
  return *state;
}

thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer* RegisterThisThread() {
  TracerState& s = State();
  MutexLock lock(s.mu);
  s.buffers.push_back(std::make_unique<ThreadBuffer>(
      uint32_t(s.buffers.size()), s.events_per_thread));
  tl_buffer = s.buffers.back().get();
  return tl_buffer;
}

/// Seqlock read of one slot; false if the owner was mid-write (torn).
bool ReadSlot(const ThreadBuffer::Slot& slot, uint32_t tid,
              TraceEvent* out) {
  const uint64_t v1 = slot.ver.load(std::memory_order_acquire);
  if (v1 & 1) return false;
  const uint64_t ts = slot.ts.load(std::memory_order_relaxed);
  const uint64_t id = slot.id.load(std::memory_order_relaxed);
  const uint64_t meta = slot.meta.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.ver.load(std::memory_order_relaxed) != v1) return false;
  out->ts_nanos = ts;
  out->id = id;
  out->arg = uint32_t(meta >> 32);
  out->tid = tid;
  out->stage = TraceStage(uint8_t(meta >> 8));
  out->phase = TracePhase(uint8_t(meta));
  if (uint8_t(meta >> 8) >= kTraceStageCount || uint8_t(meta) > 2) {
    return false;  // Slot never written (ver 0 is even) or corrupt.
  }
  return true;
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  const int i = int(stage);
  return (i >= 0 && i < kTraceStageCount) ? kStageNames[i] : "unknown";
}

bool TraceStageFromName(const std::string& name, TraceStage* out) {
  for (int i = 0; i < kTraceStageCount; ++i) {
    if (name == kStageNames[i]) {
      *out = TraceStage(i);
      return true;
    }
  }
  return false;
}

void Tracer::Enable(size_t events_per_thread) {
  TracerState& s = State();
  {
    MutexLock lock(s.mu);
    s.events_per_thread = std::max<size_t>(8, events_per_thread);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Record(TraceStage stage, TracePhase phase, uint64_t id,
                    uint32_t arg) {
  ThreadBuffer* buf = tl_buffer;
  if (buf == nullptr) buf = RegisterThisThread();
  const uint64_t n = buf->count.load(std::memory_order_relaxed);
  ThreadBuffer::Slot& slot = buf->slots[n % buf->capacity];
  // Seqlock write (owner thread only): mark odd, store payload, mark even.
  const uint64_t v = slot.ver.load(std::memory_order_relaxed);
  slot.ver.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts.store(Stopwatch::NowNanos(), std::memory_order_relaxed);
  slot.id.store(id, std::memory_order_relaxed);
  slot.meta.store(uint64_t(arg) << 32 | uint64_t(buf->tid & 0xffff) << 16 |
                      uint64_t(stage) << 8 | uint64_t(phase),
                  std::memory_order_relaxed);
  slot.ver.store(v + 2, std::memory_order_release);
  buf->count.store(n + 1, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::Drain() {
  std::vector<TraceEvent> out;
  TracerState& s = State();
  MutexLock lock(s.mu);
  for (const auto& buf : s.buffers) {
    const uint64_t total = buf->count.load(std::memory_order_acquire);
    const uint64_t kept = std::min<uint64_t>(total, buf->capacity);
    for (uint64_t n = total - kept; n < total; ++n) {
      TraceEvent ev;
      if (ReadSlot(buf->slots[n % buf->capacity], buf->tid, &ev)) {
        out.push_back(ev);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_nanos < b.ts_nanos;
                   });
  return out;
}

Tracer::Stats Tracer::stats() {
  Stats st;
  TracerState& s = State();
  MutexLock lock(s.mu);
  st.threads = s.buffers.size();
  for (const auto& buf : s.buffers) {
    const uint64_t total = buf->count.load(std::memory_order_acquire);
    st.recorded += total;
    if (total > buf->capacity) st.dropped += total - buf->capacity;
  }
  return st;
}

void Tracer::Reset() {
  TracerState& s = State();
  MutexLock lock(s.mu);
  for (auto& buf : s.buffers) {
    buf->count.store(0, std::memory_order_relaxed);
    for (auto& slot : buf->slots) {
      slot.ver.store(0, std::memory_order_relaxed);
      slot.meta.store(0, std::memory_order_relaxed);
    }
  }
}

// --- Serialization ---------------------------------------------------------

std::string SerializeTraceDump(const std::vector<TraceEvent>& events) {
  std::string out = "# hyder-trace v2\n# ts_nanos tid stage phase id arg\n";
  char line[128];
  for (const TraceEvent& ev : events) {
    const char phase = ev.phase == TracePhase::kBegin   ? 'B'
                       : ev.phase == TracePhase::kEnd   ? 'E'
                                                        : 'I';
    std::snprintf(line, sizeof(line),
                  "%" PRIu64 " %u %s %c %" PRIu64 " %u\n", ev.ts_nanos,
                  ev.tid, TraceStageName(ev.stage), phase, ev.id, ev.arg);
    out += line;
  }
  return out;
}

Result<std::vector<TraceEvent>> ParseTraceDump(const std::string& dump) {
  std::vector<TraceEvent> out;
  size_t pos = 0;
  bool saw_header = false;
  int lineno = 0;
  while (pos < dump.size()) {
    size_t eol = dump.find('\n', pos);
    if (eol == std::string::npos) eol = dump.size();
    const std::string line = dump.substr(pos, eol - pos);
    pos = eol + 1;
    lineno++;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.find("hyder-trace v1") != std::string::npos) {
        return Status::NotSupported(
            "trace dump: v1 dumps (no arg column) are no longer parsed");
      }
      if (line.find("hyder-trace v2") != std::string::npos) saw_header = true;
      continue;
    }
    char stage_buf[32];
    char phase_ch = 0;
    TraceEvent ev;
    unsigned tid = 0;
    unsigned arg = 0;
    const int fields =
        std::sscanf(line.c_str(), "%" SCNu64 " %u %31s %c %" SCNu64 " %u",
                    &ev.ts_nanos, &tid, stage_buf, &phase_ch, &ev.id, &arg);
    if (fields != 6) {
      return Status::InvalidArgument("trace dump: unparseable line " +
                                     std::to_string(lineno));
    }
    ev.tid = tid;
    ev.arg = arg;
    if (!TraceStageFromName(stage_buf, &ev.stage)) {
      return Status::InvalidArgument("trace dump: unknown stage '" +
                                     std::string(stage_buf) + "' on line " +
                                     std::to_string(lineno));
    }
    switch (phase_ch) {
      case 'B': ev.phase = TracePhase::kBegin; break;
      case 'E': ev.phase = TracePhase::kEnd; break;
      case 'I': ev.phase = TracePhase::kInstant; break;
      default:
        return Status::InvalidArgument("trace dump: bad phase on line " +
                                       std::to_string(lineno));
    }
    out.push_back(ev);
  }
  if (!saw_header) {
    return Status::InvalidArgument("trace dump: missing hyder-trace header");
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  // Track assignment: one Chrome tid per (stage, recording thread) pair,
  // grouped so a stage's tracks are adjacent. Single-threaded stages get a
  // track named after the stage; parallel stages (several recording
  // threads observed) get "stage.tN" sub-tracks, keeping every B/E pair on
  // a track written by exactly one thread (correct nesting).
  std::map<std::pair<int, uint32_t>, int> track;  // (stage, tid) -> index.
  std::vector<std::pair<int, uint32_t>> track_keys;
  for (const TraceEvent& ev : events) {
    const std::pair<int, uint32_t> key(int(ev.stage), ev.tid);
    if (track.emplace(key, 0).second) track_keys.push_back(key);
  }
  std::sort(track_keys.begin(), track_keys.end());
  int stage_threads[kTraceStageCount] = {};
  for (size_t i = 0; i < track_keys.size(); ++i) {
    track[track_keys[i]] = int(i);
    stage_threads[track_keys[i].first]++;
  }
  uint64_t base = ~0ull;
  for (const TraceEvent& ev : events) base = std::min(base, ev.ts_nanos);
  if (events.empty()) base = 0;

  std::string json = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  // Track-name metadata: this is what gives Perfetto one named track per
  // pipeline stage.
  for (const auto& key : track_keys) {
    std::string name = TraceStageName(TraceStage(key.first));
    if (stage_threads[key.first] > 1) {
      name += ".t" + std::to_string(key.second);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", track[key], name.c_str());
    first = false;
    json += buf;
  }
  for (const TraceEvent& ev : events) {
    const char* ph = ev.phase == TracePhase::kBegin   ? "B"
                     : ev.phase == TracePhase::kEnd   ? "E"
                                                      : "i";
    const double ts_us = double(ev.ts_nanos - base) / 1e3;
    const int tid = track[{int(ev.stage), ev.tid}];
    // Abort instants carry the typed cause so the point of death is
    // readable in the Chrome UI without decoding enum values.
    char extra[64] = "";
    if (ev.stage == TraceStage::kAbort) {
      std::snprintf(extra, sizeof(extra), ",\"cause\":\"%s\"",
                    AbortCauseName(static_cast<AbortCause>(
                        ev.arg < uint32_t(kAbortCauseCount) ? ev.arg : 0)));
    }
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"pipeline\",\"ph\":\"%s\","
        "\"pid\":1,\"tid\":%d,\"ts\":%.3f%s,\"args\":{\"id\":%" PRIu64
        "%s}}",
        first ? "" : ",", TraceStageName(ev.stage), ph, tid, ts_us,
        ev.phase == TracePhase::kInstant ? ",\"s\":\"t\"" : "", ev.id,
        extra);
    first = false;
    json += buf;
  }
  json += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return json;
}

}  // namespace hyder
