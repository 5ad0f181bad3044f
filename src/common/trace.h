#ifndef HYDER2_COMMON_TRACE_H_
#define HYDER2_COMMON_TRACE_H_

// Lock-free per-thread event tracer for the transaction lifecycle.
//
// The paper's evaluation is a story about where time goes as an intention
// moves from append through premeld to final meld (Figs. 11-24); this
// tracer records that lifecycle as timestamped begin/end/instant events so
// a pipeline run can be inspected stage by stage (export to Chrome
// `chrome://tracing` / Perfetto JSON via tools/trace_export).
//
// Design constraints, in priority order:
//
//  1. *Disabled must be free.* Every instrumentation site is guarded by
//     `Tracer::Enabled()`, a single relaxed atomic load; the bench harness
//     verifies the disabled path costs <= 1% on pipeline_throughput.
//  2. *Recording takes no locks.* Each thread owns a ring buffer of
//     fixed-size slots; recording is a handful of relaxed atomic stores
//     plus one release store. Buffers are registered once per thread
//     (one mutex acquisition for the thread's lifetime) and owned by the
//     process, so events survive worker-thread exit — the premeld workers
//     are long gone by the time the bench drains the trace.
//  3. *Drain is safe against live writers.* Slots are seqlock-published
//     (version word + atomic payload words, Boehm's recipe), so a drain
//     racing a wrapping writer skips torn slots instead of reading them;
//     the `-L tsan` suite exercises exactly this interleaving.
//
// Ring wrap drops the *oldest* events (the slot is overwritten); drops are
// counted per thread and reported in `Tracer::stats()`.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace hyder {

/// Pipeline stages an event can belong to. One Chrome-trace track is
/// derived per stage (per recording thread where a stage is parallel).
enum class TraceStage : uint8_t {
  kSubmit = 0,   ///< Executor hands the transaction to Submit.
  kAppend,       ///< Log append(s) of the intention's blocks (span).
  kDurable,      ///< All blocks acknowledged by the log (instant).
  kDecode,       ///< DeserializeIntention (span).
  kPremeld,      ///< Premeld stage (span, Algorithm 1).
  kHandoffWait,  ///< Blocked on a full or empty stage FIFO (span).
  kGroupMeld,    ///< Group-meld pairing (span, §4).
  kFinalMeld,    ///< Final meld decision (span).
  kPublish,      ///< Last-committed-state publication (instant).
  kAbort,        ///< Abort decision (instant; `arg` carries the AbortCause
                 ///< enumerator — Chrome export names it, see abort_info.h).
};
inline constexpr int kTraceStageCount = 10;

/// Stable lowercase name used by the raw dump and the Chrome export.
const char* TraceStageName(TraceStage stage);
/// Inverse of TraceStageName; false if `name` is not a stage.
bool TraceStageFromName(const std::string& name, TraceStage* out);

enum class TracePhase : uint8_t {
  kBegin = 0,
  kEnd = 1,
  kInstant = 2,
};

/// One drained event. `id` is the intention sequence for pipeline-side
/// events and the transaction id for executor-side events (submit/append/
/// durable happen before a log position — and hence a seq — exists).
struct TraceEvent {
  uint64_t ts_nanos = 0;
  uint64_t id = 0;
  uint32_t arg = 0;  ///< Stage-specific payload (abort: AbortCause value).
  uint32_t tid = 0;  ///< Tracer-assigned recording-thread index.
  TraceStage stage = TraceStage::kSubmit;
  TracePhase phase = TracePhase::kInstant;
};

class Tracer {
 public:
  /// The whole cost of tracing when off: one relaxed load.
  /// Instrumentation sites must check this before computing anything
  /// event-related.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Turns recording on. `events_per_thread` sizes ring buffers created
  /// *after* this call (a thread's buffer is allocated lazily on its first
  /// Record and kept for the thread's lifetime).
  static void Enable(size_t events_per_thread = 1 << 16);
  static void Disable();

  /// Records one event into the calling thread's ring buffer. Callers
  /// guard with Enabled(); calling while disabled records nothing and
  /// allocates nothing. `arg` is a stage-specific 32-bit payload (packed
  /// into the slot's meta word — recording stays four stores).
  static void Record(TraceStage stage, TracePhase phase, uint64_t id,
                     uint32_t arg = 0);

  /// Collects every buffered event from all threads, sorted by timestamp.
  /// Safe while writers are still recording: torn slots (a writer wrapping
  /// onto a slot mid-read) are skipped, not misread. Non-destructive.
  static std::vector<TraceEvent> Drain();

  struct Stats {
    uint64_t recorded = 0;  ///< Events ever recorded (all threads).
    uint64_t dropped = 0;   ///< Oldest events overwritten by ring wrap.
    uint64_t threads = 0;   ///< Threads that own a ring buffer.
  };
  static Stats stats();

  /// Forgets all buffered events (buffers stay allocated). Callers must
  /// ensure no thread is concurrently recording (disable + quiesce first).
  static void Reset();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII begin/end span. Decides once at construction whether it is armed,
/// so a span never emits an unpaired end when tracing flips mid-scope.
class TraceSpan {
 public:
  TraceSpan(TraceStage stage, uint64_t id)
      : armed_(Tracer::Enabled()), stage_(stage), id_(id) {
    if (armed_) Tracer::Record(stage_, TracePhase::kBegin, id_);
  }
  ~TraceSpan() {
    if (armed_) Tracer::Record(stage_, TracePhase::kEnd, id_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const bool armed_;
  const TraceStage stage_;
  const uint64_t id_;
};

inline void TraceInstant(TraceStage stage, uint64_t id, uint32_t arg = 0) {
  if (Tracer::Enabled()) Tracer::Record(stage, TracePhase::kInstant, id, arg);
}

// --- Serialization (bench --trace-out, tools/trace_export) ----------------

/// Raw dump, one line per event: `ts_nanos tid stage phase id arg`, with a
/// `# hyder-trace v2` header. The stable on-disk hand-off between a traced
/// run and tools/trace_export. The parser rejects v1 dumps (five columns,
/// no arg) with NotSupported.
std::string SerializeTraceDump(const std::vector<TraceEvent>& events);
Result<std::vector<TraceEvent>> ParseTraceDump(const std::string& dump);

/// Chrome trace-event JSON ("traceEvents" array) suitable for
/// chrome://tracing and https://ui.perfetto.dev. Tracks: one per stage,
/// plus per-recording-thread sub-tracks ("premeld.t3") where a stage is
/// recorded by several threads — B/E pairs from one thread stay properly
/// nested. Timestamps are rebased to the earliest event.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

}  // namespace hyder

#endif  // HYDER2_COMMON_TRACE_H_
