// Benchmark program for the Hyder II transaction server.
//
// One process holds an in-memory striped log and one HyderServer with its
// default options. Clients simulated in this thread run transactions of the
// paper's shape (§6.1: 8 reads then 2 writes, 16-byte values) under
// serializable isolation, each retried on abort until it commits, plus
// read-only transactions of 10 reads, over the 100k keys of §6.4.2.
// Workloads, with the settings the figure benches under bench/ use:
//
//   hot      closed loop, 1000 clients (bench_common's in-flight window,
//            the paper's 20 threads x 80 in flight scaled down), hotspot
//            x = 0.2 (fig18/fig19: a fraction x of the keys takes a
//            fraction 1 - x of the draws);
//   open     open loop, 2000 requests/s at fixed spacing, uniform: two
//            thirds of fig18_skew_forensics' offered load, so that the
//            server stays under half busy on a slow host.
//
// 40% of requests are read-only, the read share of fig14's peak mix of 6
// write and 4 read executors per server.
//
// A closed-loop client sends its next request when the previous one
// completes; an open-loop request is timed from when it was due, so a stall
// is charged to every request that waited behind it.
//
// The log is the database and the server slows down as it grows, so a run
// is a sequence of episodes of fixed work: each loads a fresh database and
// measures a fixed number of write attempts.
//
// Every read is checked against a shadow copy of the database kept by this
// file: a read must return the value of the last write committed before it,
// and a committed transaction's reads must still hold at its commit point.
// After each episode the whole key space is scanned and compared.
//
// With --trace 1 the calls this file makes into each layer are timed from
// outside: transaction execution, submit (serialization), log append, log
// read (through a timing decorator around the shared log, which the
// server's resolver also reads through) and poll. The layer times and the
// client loop's remainder add up to the wall time. Inside poll, the
// server's own stage counters split out decode and final meld.
//
// Usage: hyder_perf --workload NAME --seed N --seconds S --trace 0|1
// The last line of stdout is the JSON result.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "log/striped_log.h"
#include "server/server.h"

namespace {

using hyder::HyderServer;
using hyder::Key;
using hyder::MeldDecision;
using hyder::Status;

uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// SplitMix64. The benchmark draws every input from its own generator so
/// that the inputs depend on --seed alone, not on the library's RNGs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

struct Workload {
  const char* name;
  bool open_loop;
  uint64_t keys;
  /// Hotspot x (§6.4.5): keys [0, x * keys) take a share 1 - x of the key
  /// draws, as in workload/ and fig18; 1 is uniform.
  double hotspot_x;
  /// Closed loop: clients, each with one request outstanding.
  int clients;
  /// Open loop: requests per second, evenly spaced.
  double arrivals_per_sec;
  /// Share of requests that are read-only transactions.
  double read_only_share;
  /// Write attempts measured per episode.
  uint64_t episode_attempts;
};

constexpr Workload kWorkloads[] = {
    {"hot", false, 100'000, 0.2, 1000, 0, 0.4, 10'000},
    {"open", true, 100'000, 1.0, 0, 2000, 0.4, 6'000},
};

constexpr int kReadsPerTxn = 8;
constexpr int kWritesPerTxn = 2;
constexpr int kReadOnlyReads = 10;
constexpr int kKeysPerRequest = kReadsPerTxn + kWritesPerTxn;
static_assert(kReadOnlyReads <= kKeysPerRequest);
/// A request still aborting after this many attempts counts as failed.
constexpr int kMaxAttempts = 1000;
/// Keys written per transaction while loading the database.
constexpr uint64_t kLoadBatch = 1000;
/// Minimum database loads per run; setup_s is the median load time.
constexpr size_t kSetupRepeats = 3;
/// Write attempts per episode before measuring: two in-flight windows of
/// the closed loops, so that conflict zones have reached their length.
constexpr uint64_t kWarmupAttempts = 2000;
/// A measured stretch that takes longer than this ends early, so that a
/// much slower program still finishes a run in time.
constexpr uint64_t kMaxEpisodeNs = 40'000'000'000;

// ---------------------------------------------------------------------------
// Values and the shadow database.

/// A value names its key and a version unique to the write that stored it:
/// 7 hex digits of key, '.', 8 hex digits of version (16 bytes).
std::string EncodeValue(Key key, uint32_t version) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%07" PRIx64 ".%08" PRIx32, key, version);
  return std::string(buf, 16);
}

bool ParseHex(const char* p, int n, uint64_t* out) {
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    const char c = p[i];
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = v * 16 + uint64_t(d);
  }
  *out = v;
  return true;
}

bool DecodeValue(const std::string& v, Key* key, uint32_t* version) {
  uint64_t k = 0;
  uint64_t ver = 0;
  if (v.size() != 16 || v[7] != '.' || !ParseHex(v.data(), 7, &k) ||
      !ParseHex(v.data() + 8, 8, &ver)) {
    return false;
  }
  *key = k;
  *version = uint32_t(ver);
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer timing, measured around calls into the library.

enum Layer : uint8_t {
  kExec,       ///< Begin + reads + writes of a write-transaction attempt.
  kReadTxn,    ///< A whole read-only transaction.
  kSerialize,  ///< Submit, minus the log appends it makes.
  kPoll,       ///< Poll, minus the log reads it makes: decode and meld.
  kLogAppend,  ///< SharedLog::Append.
  kLogRead,    ///< SharedLog::Read (log tailing and resolver refetches).
  kLayerCount,
};
constexpr const char* kLayerNames[kLayerCount] = {
    "exec", "read_txn", "serialize", "poll", "log_append", "log_read"};

/// Self time and call count of each layer over the measured stretches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// True while calls are timed: tracing is enabled and a measured
  /// stretch is running.
  bool on() const { return enabled_ && recording_; }
  bool enabled() const { return enabled_; }
  void Start() { recording_ = true; }
  void Stop() { recording_ = false; }
  uint64_t log_ns() const { return self_ns_[kLogAppend] + self_ns_[kLogRead]; }
  uint64_t self_ns(Layer l) const { return self_ns_[l]; }
  uint64_t calls(Layer l) const { return calls_[l]; }

  /// Books one call; `child_ns` is the log time spent inside it.
  void Record(Layer layer, uint64_t start, uint64_t end, uint64_t child_ns) {
    self_ns_[layer] += end - start - child_ns;
    calls_[layer]++;
  }

 private:
  const bool enabled_;
  bool recording_ = false;
  std::array<uint64_t, kLayerCount> self_ns_{};
  std::array<uint64_t, kLayerCount> calls_{};
};

/// Times one call into a layer when tracing is on; free otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer->on() ? tracer : nullptr), layer_(layer) {
    if (tracer_ != nullptr) {
      start_ = NowNs();
      log_ns_ = tracer_->log_ns();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(layer_, start_, NowNs(), tracer_->log_ns() - log_ns_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const Layer layer_;
  uint64_t start_ = 0;
  uint64_t log_ns_ = 0;
};

/// Shared-log decorator: counts every append and read the server and its
/// resolver make, and times them when tracing is on.
class TimedLog final : public hyder::SharedLog {
 public:
  TimedLog(std::unique_ptr<hyder::SharedLog> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  hyder::Result<uint64_t> Append(std::string block) override {
    appends_++;
    bytes_appended_ += block.size();
    if (!tracer_->on()) return inner_->Append(std::move(block));
    const uint64_t start = NowNs();
    hyder::Result<uint64_t> r = inner_->Append(std::move(block));
    tracer_->Record(kLogAppend, start, NowNs(), 0);
    return r;
  }
  hyder::Result<std::string> Read(uint64_t position) override {
    reads_++;
    if (!tracer_->on()) return inner_->Read(position);
    const uint64_t start = NowNs();
    hyder::Result<std::string> r = inner_->Read(position);
    tracer_->Record(kLogRead, start, NowNs(), 0);
    return r;
  }
  uint64_t Tail() const override { return inner_->Tail(); }
  Status Truncate(uint64_t low_water_position) override {
    return inner_->Truncate(low_water_position);
  }
  uint64_t LowWaterMark() const override { return inner_->LowWaterMark(); }
  size_t block_size() const override { return inner_->block_size(); }
  void RecordRetry() override { inner_->RecordRetry(); }
  hyder::LogStats stats() const override { return inner_->stats(); }

  uint64_t appends() const { return appends_; }
  uint64_t reads() const { return reads_; }
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  const std::unique_ptr<hyder::SharedLog> inner_;
  Tracer* const tracer_;
  uint64_t appends_ = 0;
  uint64_t reads_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// One database: log and server. The server holds a pointer to the log, so
/// it must be destroyed first; `Reset` and the member order ensure that.
struct Database {
  std::unique_ptr<TimedLog> log;
  std::unique_ptr<HyderServer> server;

  void Reset() {
    server.reset();
    log.reset();
  }
};

/// Creates a log and server and loads keys [0, keys) at version 0.
hyder::Result<Database> LoadDatabase(uint64_t keys, Tracer* tracer) {
  Database db;
  db.log = std::make_unique<TimedLog>(
      std::make_unique<hyder::StripedLog>(hyder::StripedLogOptions{}),
      tracer);
  hyder::ServerOptions options;
  // The periodic ephemeral sweep drops nodes the latest state still
  // reaches (reads then fail with SnapshotTooOld after about a thousand
  // melds), so it stays off; episodes bound what the registry holds.
  options.sweep_interval = UINT64_MAX;
  db.server = std::make_unique<HyderServer>(db.log.get(), options);
  for (Key lo = 0; lo < keys; lo += kLoadBatch) {
    hyder::Transaction txn =
        db.server->Begin(hyder::IsolationLevel::kSerializable);
    for (Key k = lo; k < std::min(keys, lo + kLoadBatch); ++k) {
      Status s = txn.Put(k, EncodeValue(k, 0));
      if (!s.ok()) return s;
    }
    hyder::Result<bool> committed = db.server->Commit(std::move(txn));
    if (!committed.ok()) return committed.status();
    if (!*committed) return Status::Internal("load transaction aborted");
  }
  return db;
}

// ---------------------------------------------------------------------------
// The run.

/// One logical request: a read-only transaction, or a write transaction
/// retried until it commits.
struct Request {
  int client = -1;  ///< Closed loop only.
  bool read_only = false;
  bool measured = false;  ///< Issued while measuring.
  uint64_t due_ns = 0;    ///< Due (open) or client free (closed).
  int attempts = 0;
  std::array<Key, kKeysPerRequest> keys{};
  /// Current attempt: versions read, versions written.
  std::array<uint32_t, kReadsPerTxn> read_versions{};
  std::array<uint32_t, kWritesPerTxn> write_versions{};
};

/// The q-quantile (nearest rank below) of `v`, which it reorders.
template <typename T>
T Quantile(std::vector<T>* v, double q) {
  if (v->empty()) return T{};
  const size_t i = size_t(q * double(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + long(i), v->end());
  return (*v)[i];
}

/// Runs a workload as a sequence of episodes until `seconds` have been
/// measured. An episode loads a fresh database, warms up for
/// kWarmupAttempts write attempts, measures the next
/// `episode_attempts`, then finishes the requests it measured and checks
/// the whole database. Each episode grows the log by the same amount, so
/// a faster program does the same work in less time.
class Bench {
 public:
  Bench(const Workload& w, uint64_t seed, Tracer* tracer)
      : w_(w), rng_(seed), tracer_(tracer) {}

  void Run(double seconds) {
    const uint64_t budget_ns = uint64_t(seconds * 1e9);
    while (ok() && measured_ns_ < budget_ns) {
      StartEpisode();
      if (!ok()) return;
      RunStretch(false, kWarmupAttempts, UINT64_MAX);
      if (!ok()) return;
      RunStretch(true, kWarmupAttempts + w_.episode_attempts,
                 NowNs() + kMaxEpisodeNs);
      Drain();
      if (ok()) VerifyFinalState();
      CloseEpisode();
    }
    // Extra loads so that setup_s is a median even in a short run.
    while (ok() && setup_ns_.size() < kSetupRepeats) Load();
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  void PrintResult() {
    std::string metrics;
    auto add = [&](const std::string& name, double value, const char* unit) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      metrics += (metrics.empty() ? "\"" : ", \"") + name +
                 "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    };
    const double wall_ns = double(std::max<uint64_t>(measured_ns_, 1));
    if (!tracer_->enabled()) {
      add("commit_tps", double(window_commits_) / (wall_ns / 1e9), "1/s");
      add("write_p50_ms", Quantile(&write_p50_ns_, 0.5) / 1e6, "ms");
      add("write_p95_ms", Quantile(&write_p95_ns_, 0.5) / 1e6, "ms");
      add("read_p50_ms", Quantile(&read_p50_ns_, 0.5) / 1e6, "ms");
      add("read_p95_ms", Quantile(&read_p95_ns_, 0.5) / 1e6, "ms");
      add("setup_s", Quantile(&setup_ns_, 0.5) / 1e9, "s");
    } else {
      auto mean_us = [&](Layer l, uint64_t n) {
        return double(tracer_->self_ns(l)) / double(std::max<uint64_t>(n, 1)) /
               1e3;
      };
      const uint64_t decided = window_decisions_;
      add("exec_us", mean_us(kExec, tracer_->calls(kExec)), "us");
      add("read_txn_us", mean_us(kReadTxn, tracer_->calls(kReadTxn)), "us");
      add("serialize_us", mean_us(kSerialize, tracer_->calls(kSerialize)),
          "us");
      add("log_append_us", mean_us(kLogAppend, tracer_->calls(kLogAppend)),
          "us");
      add("log_read_us", mean_us(kLogRead, tracer_->calls(kLogRead)), "us");
      add("poll_us", mean_us(kPoll, decided), "us");
      add("decode_us",
          double(window_stages_.decode_ns) /
              double(std::max<uint64_t>(window_stages_.intentions, 1)) / 1e3,
          "us");
      const double final_melds =
          double(std::max<uint64_t>(window_stages_.final_melds, 1));
      add("final_meld_us",
          double(window_stages_.final_meld_ns) / final_melds / 1e3, "us");
      add("conflict_zone", double(window_stages_.zone_sum) / final_melds,
          "count");
      add("log_reads_per_intention",
          double(window_log_.reads) / double(std::max<uint64_t>(decided, 1)),
          "count");
      add("bytes_per_append",
          double(window_log_.bytes) /
              double(std::max<uint64_t>(window_log_.appends, 1)),
          "B");
      add("commit_ratio",
          double(window_commits_) / double(std::max<uint64_t>(decided, 1)),
          "ratio");
      add("ww_aborts_per_decision",
          double(window_stages_.ww_aborts) /
              double(std::max<uint64_t>(decided, 1)),
          "ratio");
      add("rw_aborts_per_decision",
          double(window_stages_.rw_aborts) /
              double(std::max<uint64_t>(decided, 1)),
          "ratio");
      add("start_lag_us",
          double(start_lag_ns_) / double(std::max<uint64_t>(started_, 1)) /
              1e3,
          "us");
      double layered = 0;
      for (int l = 0; l < kLayerCount; ++l) {
        const double ns = double(tracer_->self_ns(Layer(l)));
        layered += ns;
        add(std::string("share_") + kLayerNames[l], 100.0 * ns / wall_ns, "%");
      }
      add("share_client", 100.0 * (wall_ns - layered) / wall_ns, "%");
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": {%s}}\n",
        ok() ? "true" : "false", completed_ + failed_, failed_,
        metrics.c_str());
    std::fflush(stdout);
  }

 private:
  /// Log traffic counters; the window totals sum the measured stretches.
  struct LogCounts {
    uint64_t reads = 0;
    uint64_t appends = 0;
    uint64_t bytes = 0;
  };
  LogCounts SnapLog() const {
    return LogCounts{db_.log->reads(), db_.log->appends(),
                     db_.log->bytes_appended()};
  }

  /// The server's own pipeline counters (CPU time per stage); the window
  /// totals sum the measured stretches.
  struct StageCounts {
    uint64_t intentions = 0;
    uint64_t decode_ns = 0;
    uint64_t final_melds = 0;
    uint64_t final_meld_ns = 0;
    uint64_t zone_sum = 0;
    uint64_t ww_aborts = 0;
    uint64_t rw_aborts = 0;
  };
  StageCounts SnapStages() const {
    const hyder::PipelineStats s = server_->stats();
    auto aborts = [&](hyder::AbortCause c) {
      return s.aborts_by_cause[size_t(c)];
    };
    return StageCounts{s.intentions,
                       s.deserialize.cpu_nanos,
                       s.final_melds,
                       s.final_meld.cpu_nanos,
                       s.conflict_zone_sum,
                       aborts(hyder::AbortCause::kAbortWriteWrite),
                       aborts(hyder::AbortCause::kAbortReadWrite)};
  }

  void Fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
  }

  /// Books the p50 and p95 of the episode's latencies. The run reports
  /// their medians over episodes, so that a host stall of a few hundred
  /// milliseconds, which lifts the percentiles of the episode it falls in,
  /// does not decide the run's figure.
  void CloseEpisode() {
    auto book = [](std::vector<uint64_t>* ns, std::vector<double>* p50,
                   std::vector<double>* p95) {
      if (ns->empty()) return;
      p50->push_back(double(Quantile(ns, 0.50)));
      p95->push_back(double(Quantile(ns, 0.95)));
    };
    book(&write_ns_, &write_p50_ns_, &write_p95_ns_);
    book(&read_ns_, &read_p50_ns_, &read_p95_ns_);
    completed_ += write_ns_.size() + read_ns_.size();
    write_ns_.clear();
    read_ns_.clear();
  }

  void Load() {
    server_ = nullptr;
    db_.Reset();  // One database alive at a time.
    const uint64_t start = NowNs();
    hyder::Result<Database> loaded = LoadDatabase(w_.keys, tracer_);
    setup_ns_.push_back(double(NowNs() - start));
    if (!loaded.ok()) {
      Fail("load: " + loaded.status().ToString());
      return;
    }
    db_ = std::move(*loaded);
  }

  void StartEpisode() {
    Load();
    if (!ok()) return;
    server_ = db_.server.get();
    shadow_.assign(w_.keys, 0);
    attempts_submitted_ = 0;
    draining_ = false;
    const uint64_t now = NowNs();
    ready_.clear();
    clients_.assign(size_t(w_.clients), Request{});
    for (int c = 0; c < w_.clients; ++c) {
      clients_[size_t(c)].client = c;
      clients_[size_t(c)].due_ns = now;
      ready_.push_back(c);
    }
    next_due_ = now;
  }

  /// Issues requests and melds until `until_attempts` write attempts of
  /// this episode were submitted or the clock reaches `deadline`.
  void RunStretch(bool measure, uint64_t until_attempts, uint64_t deadline) {
    measuring_ = measure;
    const uint64_t start = NowNs();
    const LogCounts log_start = SnapLog();
    const StageCounts stages_start = SnapStages();
    if (measure) tracer_->Start();
    while (ok() && attempts_submitted_ < until_attempts) {
      const uint64_t now = NowNs();
      if (now >= deadline) break;
      if (w_.open_loop) {
        while (next_due_ <= now && ok()) {
          Request* r = TakeOpenRequest();
          NewRequest(r, next_due_);
          Attempt(r);
          next_due_ += uint64_t(1e9 / w_.arrivals_per_sec);
        }
        PollOnce();
      } else {
        while (!ready_.empty() && ok()) {
          Request* r = &clients_[size_t(ready_.back())];
          ready_.pop_back();
          NewRequest(r, r->due_ns);
          Attempt(r);
        }
        if (!PollOnce() && ok()) {
          Fail("closed loop stalled with every client waiting");
        }
      }
    }
    if (measure) {
      tracer_->Stop();
      measured_ns_ += NowNs() - start;
      const LogCounts log_end = SnapLog();
      window_log_.reads += log_end.reads - log_start.reads;
      window_log_.appends += log_end.appends - log_start.appends;
      window_log_.bytes += log_end.bytes - log_start.bytes;
      const StageCounts stages_end = SnapStages();
      window_stages_.intentions +=
          stages_end.intentions - stages_start.intentions;
      window_stages_.decode_ns += stages_end.decode_ns - stages_start.decode_ns;
      window_stages_.final_melds +=
          stages_end.final_melds - stages_start.final_melds;
      window_stages_.final_meld_ns +=
          stages_end.final_meld_ns - stages_start.final_meld_ns;
      window_stages_.zone_sum += stages_end.zone_sum - stages_start.zone_sum;
      window_stages_.ww_aborts +=
          stages_end.ww_aborts - stages_start.ww_aborts;
      window_stages_.rw_aborts +=
          stages_end.rw_aborts - stages_start.rw_aborts;
    }
    measuring_ = false;
  }

  Key NextKey() {
    const uint64_t hot = uint64_t(w_.hotspot_x * double(w_.keys));
    if (hot >= w_.keys) return rng_.Below(w_.keys);
    if (rng_.Unit() < 1.0 - w_.hotspot_x) return rng_.Below(hot);
    return hot + rng_.Below(w_.keys - hot);
  }

  void NewRequest(Request* r, uint64_t due) {
    r->read_only = rng_.Unit() < w_.read_only_share;
    r->due_ns = due;
    r->measured = measuring_;
    r->attempts = 0;
    for (Key& k : r->keys) k = NextKey();
  }

  Request* TakeOpenRequest() {
    if (open_pool_.empty()) open_pool_.push_back(std::make_unique<Request>());
    Request* r = open_pool_.back().release();
    open_pool_.pop_back();
    return r;
  }

  /// Checks a read against the shadow copy and returns the version read.
  bool CheckRead(Key key, const hyder::Result<std::optional<std::string>>& v,
                 uint32_t* version) {
    if (!v.ok()) {
      Fail("read of key " + std::to_string(key) + ": " +
           v.status().ToString());
      return false;
    }
    Key got = 0;
    if (!v->has_value() || !DecodeValue(**v, &got, version) || got != key ||
        *version != shadow_[key]) {
      Fail("key " + std::to_string(key) + " read a wrong value");
      return false;
    }
    return true;
  }

  /// Runs one attempt of `r` on a fresh snapshot. A read-only request
  /// completes here; a write attempt is submitted and waits in `pending_`
  /// for its decision.
  void Attempt(Request* r) {
    if (r->attempts++ == 0 && r->measured) {
      start_lag_ns_ += NowNs() - r->due_ns;
      started_++;
    }
    if (r->read_only) {
      {
        ScopedSpan span(tracer_, kReadTxn);
        hyder::Transaction txn =
            server_->Begin(hyder::IsolationLevel::kSerializable);
        for (int i = 0; i < kReadOnlyReads; ++i) {
          uint32_t version = 0;
          if (!CheckRead(r->keys[i], txn.Get(r->keys[i]), &version)) return;
        }
        auto sub = server_->Submit(std::move(txn));
        if (!sub.ok() || !sub->decided || !sub->committed) {
          Fail("read-only transaction not committed at submit");
          return;
        }
      }
      Complete(r, true);
      return;
    }
    std::optional<hyder::Transaction> txn;
    {
      ScopedSpan span(tracer_, kExec);
      txn.emplace(server_->Begin(hyder::IsolationLevel::kSerializable));
      for (int i = 0; i < kReadsPerTxn; ++i) {
        if (!CheckRead(r->keys[i], txn->Get(r->keys[i]),
                       &r->read_versions[i])) {
          return;
        }
      }
      for (int i = 0; i < kWritesPerTxn; ++i) {
        const Key key = r->keys[kReadsPerTxn + i];
        r->write_versions[i] = ++next_version_;
        Status s = txn->Put(key, EncodeValue(key, r->write_versions[i]));
        if (!s.ok()) {
          Fail("put: " + s.ToString());
          return;
        }
      }
    }
    const uint64_t txn_id = txn->txn_id();
    {
      ScopedSpan span(tracer_, kSerialize);
      auto sub = server_->Submit(std::move(*txn));
      if (!sub.ok() && sub.status().IsBusy()) {
        // Admission control refused it: the request fails, the run goes on.
        Complete(r, false);
        return;
      }
      if (!sub.ok()) {
        Fail("submit: " + sub.status().ToString());
        return;
      }
    }
    attempts_submitted_++;
    pending_.emplace(txn_id, r);
  }

  void Complete(Request* r, bool committed) {
    const uint64_t now = NowNs();
    if (r->measured) {
      if (!committed) {
        failed_++;
      } else if (r->read_only) {
        read_ns_.push_back(now - r->due_ns);
      } else {
        write_ns_.push_back(now - r->due_ns);
      }
    }
    if (r->client >= 0) {
      r->due_ns = now;
      ready_.push_back(r->client);
    } else {
      open_pool_.emplace_back(r);
    }
  }

  /// Applies one decision, in log order, to the shadow copy and then
  /// completes or retries the request it decides.
  void OnDecision(const MeldDecision& d) {
    auto it = pending_.find(d.txn_id);
    if (it == pending_.end()) return;  // A drain filler.
    Request* r = it->second;
    pending_.erase(it);
    if (measuring_) {
      window_decisions_++;
      if (d.committed) window_commits_++;
    }
    if (d.committed) {
      for (int i = 0; i < kReadsPerTxn; ++i) {
        if (shadow_[r->keys[i]] != r->read_versions[i]) {
          Fail("committed transaction read key " + std::to_string(r->keys[i]) +
               ", which its conflict zone overwrote");
          return;
        }
      }
      for (int i = 0; i < kWritesPerTxn; ++i) {
        shadow_[r->keys[kReadsPerTxn + i]] = r->write_versions[i];
      }
      Complete(r, true);
    } else if (r->attempts >= kMaxAttempts) {
      Complete(r, false);
    } else if (!draining_ || r->measured) {
      Attempt(r);
    } else if (r->client < 0) {
      open_pool_.emplace_back(r);
    }
  }

  /// Melds at most one intention; returns false when the log held nothing
  /// left to read.
  bool PollOnce() {
    if (server_->next_read_position() >= db_.log->Tail()) return false;
    hyder::Result<std::vector<MeldDecision>> decisions = [&] {
      ScopedSpan span(tracer_, kPoll);
      return server_->Poll(1);
    }();
    if (!decisions.ok()) {
      Fail("poll: " + decisions.status().ToString());
      return false;
    }
    for (const MeldDecision& d : *decisions) OnDecision(d);
    return true;
  }

  /// Finishes the measured requests still in flight (retrying aborts) and
  /// lets the others reach their decisions, so that the shadow copy and
  /// the server agree before the final check.
  void Drain() {
    draining_ = true;
    const uint64_t deadline = NowNs() + uint64_t(30e9);
    while (ok() && !pending_.empty()) {
      if (NowNs() > deadline) {
        Fail("drain did not finish");
      } else if (!PollOnce() && ok()) {
        // Nothing left to read yet a decision is owed: a meld stage may
        // hold the last intention until another follows. Submit a blind
        // write to a key outside the checked range.
        hyder::Transaction filler =
            server_->Begin(hyder::IsolationLevel::kSerializable);
        Status s = filler.Put(w_.keys, EncodeValue(w_.keys, 0));
        if (s.ok()) s = server_->Submit(std::move(filler)).status();
        if (!s.ok()) Fail("drain filler: " + s.ToString());
      }
    }
    for (auto& [id, r] : pending_) {
      if (r->client < 0) open_pool_.emplace_back(r);
    }
    pending_.clear();
  }

  /// Scans the whole key space (one tree walk, far cheaper than a read
  /// per key) and compares every value with the shadow copy.
  void VerifyFinalState() {
    hyder::Transaction txn = server_->Begin(hyder::IsolationLevel::kSnapshot);
    auto all = txn.Scan(0, w_.keys - 1);
    if (!all.ok()) {
      Fail("scan: " + all.status().ToString());
      return;
    }
    if (all->size() != w_.keys) {
      Fail("scan returned " + std::to_string(all->size()) + " of " +
           std::to_string(w_.keys) + " keys");
      return;
    }
    for (Key k = 0; k < w_.keys; ++k) {
      const auto& [key, value] = (*all)[k];
      Key got = 0;
      uint32_t version = 0;
      if (key != k || !DecodeValue(value, &got, &version) || got != k ||
          version != shadow_[k]) {
        Fail("scan found a wrong value at key " + std::to_string(k));
        return;
      }
    }
  }

  const Workload& w_;
  Rng rng_;
  Tracer* const tracer_;
  Database db_;
  HyderServer* server_ = nullptr;
  /// Version of each key's last committed write, in log order.
  std::vector<uint32_t> shadow_;
  uint32_t next_version_ = 0;
  std::unordered_map<uint64_t, Request*> pending_;
  std::vector<Request> clients_;
  std::vector<int> ready_;
  std::vector<std::unique_ptr<Request>> open_pool_;
  uint64_t next_due_ = 0;
  uint64_t attempts_submitted_ = 0;
  bool measuring_ = false;
  bool draining_ = false;

  std::vector<double> setup_ns_;
  uint64_t measured_ns_ = 0;
  /// Latencies of this episode's measured requests that completed.
  std::vector<uint64_t> write_ns_;
  std::vector<uint64_t> read_ns_;
  /// Latency percentiles of each finished episode.
  std::vector<double> write_p50_ns_;
  std::vector<double> write_p95_ns_;
  std::vector<double> read_p50_ns_;
  std::vector<double> read_p95_ns_;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t window_decisions_ = 0;
  uint64_t window_commits_ = 0;
  LogCounts window_log_;
  StageCounts window_stages_;
  uint64_t start_lag_ns_ = 0;
  uint64_t started_ = 0;
  std::string error_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  if (argc % 2 != 1) return std::nullopt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args->workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }

  Tracer tracer(args->trace);
  Bench bench(*w, args->seed, &tracer);
  bench.Run(args->seconds);
  if (!bench.ok()) std::fprintf(stderr, "error: %s\n", bench.error().c_str());
  bench.PrintResult();
  return bench.ok() ? 0 : 1;
}
