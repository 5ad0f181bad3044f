// Meld hot-path throughput: the sequential driver against the threaded
// driver at t in {0, 2, 5}, replaying one identical log through each.
//
// Both drivers run the same engine stages (SequentialPipeline's Decode,
// Premeld and Meld) and meld on the thread that feeds them; the threaded
// one runs decode and premeld on t workers (one at t = 0), handing
// intentions over per-worker FIFOs (DESIGN.md, "Meld hot path").
// Both replays do the same work: `wall_ms` and `intentions_per_sec` time the
// replay without the sequential driver's ephemeral sweeps, which it runs
// every `ServerOptions::sweep_interval` intentions as the server does and
// reports separately in `sweep_ms` (the threaded replay never sweeps). The
// other columns are the melding thread's resolver lock acquisitions per
// intention (PipelineStats::fm_resolver_locks: group + final meld only),
// the lane FIFOs' sleeps (threaded only), the live pool nodes at the
// end of the replay and the log reads (resolver refetches) per intention
// during it. `premeld_skips` and `premeld_aborts` count the intentions
// whose snapshot was already at or past their premeld input (Algorithm 1,
// line 3) and those premeld killed: at t > 0 the bench aborts unless
// premeld ran on at least half of the intentions, so every threaded row
// measures the paper's mechanism. With --metrics-json, the dump carries each
// replay resolver's registry counters: `resolver.threaded.*` live from the
// last threaded replay, `resolver.sequential.*` as the sequential replay
// before it ended.
//
// Run with --json[=path] for machine-readable output; the committed
// results/BENCH_pipeline_throughput.json holds runs of this bench with
// their machine notes.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "check.h"
#include "common/random.h"
#include "common/registry.h"
#include "common/stopwatch.h"
#include "meld/threaded_pipeline.h"
#include "server/resolver.h"
#include "tree/node_pool.h"
#include "txn/codec.h"

namespace hyder {
namespace bench {
namespace {

/// Transactions submitted between two polls of the generation server. They
/// share one snapshot, so intention v of a batch lags its snapshot by its
/// place in the batch; premeld skips every intention that lags by at most
/// t*d (its premeld input is then no newer than its snapshot), so the batch
/// must be much longer than the deepest t*d the bench runs (50).
constexpr uint64_t kGenerateBatch = 256;

/// Fills a log with `txns` small write transactions submitted in
/// conflicting batches (shared snapshots), via a generation server running
/// `config`. The replay engines must run the *same* meld configuration:
/// ephemeral version ids are a function of (t, d, group) (§3.4), and the
/// logged intentions' snapshot references name them.
uint64_t GenerateLog(StripedLog* log, uint64_t txns,
                     const PipelineConfig& config) {
  ServerOptions opts;
  opts.max_inflight = 1 << 20;
  opts.pipeline = config;
  HyderServer server(log, opts);
  Rng rng(42);
  uint64_t submitted = 0;
  while (submitted < txns) {
    const uint64_t batch =
        std::min<uint64_t>(kGenerateBatch, txns - submitted);
    for (uint64_t i = 0; i < batch; ++i) {
      Transaction txn = server.Begin(IsolationLevel::kSerializable);
      HYDER_BENCH_CHECK_OK(txn.Get(rng.Uniform(20000)));
      HYDER_BENCH_CHECK_OK(txn.Put(rng.Uniform(20000), "bench-val-16byte"));
      HYDER_BENCH_CHECK_OK(txn.Put(rng.Uniform(20000), "bench-val-16byte"));
      HYDER_BENCH_CHECK_OK(server.Submit(std::move(txn)));
    }
    HYDER_BENCH_CHECK_OK(server.Poll());
    submitted += batch;
  }
  return submitted;
}

/// The completed intentions in `log`, each with its blocks' positions.
std::vector<IntentionAssembler::Completed> ReadBack(StripedLog* log) {
  std::vector<IntentionAssembler::Completed> out;
  IntentionAssembler assembler;
  for (uint64_t pos = 1; pos < log->Tail(); ++pos) {
    auto block = log->Read(pos);
    HYDER_BENCH_CHECK_OK(block);
    auto fed = assembler.AddBlock(pos, *block);
    HYDER_BENCH_CHECK_OK(fed);
    if (fed->completed.has_value()) out.push_back(std::move(*fed->completed));
  }
  return out;
}

struct RunResult {
  double wall_ms = 0;
  double ips = 0;  ///< Intentions melded per wall second.
  PipelineStats stats;
  double sweep_ms = 0;      ///< Wall time inside SweepEphemerals.
  uint64_t arena_live = 0;  ///< Live pool nodes after the replay.
  uint64_t log_reads = 0;   ///< Log reads during the replay.
  /// The replay resolver's metrics as the replay ended.
  std::vector<std::pair<std::string, double>> resolver_metrics;
};

PipelineConfig MeldConfig(int threads) {
  PipelineConfig config;
  config.premeld_threads = threads;
  config.premeld_distance = 10;
  config.group_meld = true;
  config.state_retention = 8192;
  return config;
}

/// Replays the stream through a SequentialPipeline the way the server's
/// poll loop does: Decode on the feed thread, then Process, sweeping the
/// ephemeral registry every `ServerOptions::sweep_interval` intentions. The
/// reported wall time excludes the sweeps.
RunResult RunSequential(
    StripedLog* log, const std::vector<IntentionAssembler::Completed>& stream,
    int threads) {
  ServerResolver resolver(log, ResolverOptions{});
  PipelineConfig config = MeldConfig(threads);
  SequentialPipeline pipeline(
      config, DatabaseState{0, Ref::Null()}, &resolver,
      [&resolver](const NodePtr& n) { resolver.RegisterEphemeral(n); });
  const uint64_t sweep_interval = ServerOptions{}.sweep_interval;
  uint64_t since_sweep = 0;
  uint64_t sweep_nanos = 0;
  const uint64_t reads_before = log->stats().reads;
  Stopwatch wall;
  for (const IntentionAssembler::Completed& li : stream) {
    resolver.RecordIntentionBlocks(li.seq, li.positions);
    auto intent = pipeline.Decode(li, pipeline.mutable_stats());
    HYDER_BENCH_CHECK_OK(intent);
    resolver.CacheIntention(li.seq, (*intent)->flats.front().second);
    HYDER_BENCH_CHECK_OK(pipeline.Process(std::move(*intent)));
    if (++since_sweep >= sweep_interval) {
      since_sweep = 0;
      Stopwatch sweep;
      resolver.SweepEphemerals();
      sweep_nanos += sweep.ElapsedNanos();
    }
  }
  HYDER_BENCH_CHECK_OK(pipeline.Flush());
  RunResult r;
  r.sweep_ms = double(sweep_nanos) / 1e6;
  r.wall_ms = double(wall.ElapsedNanos() - sweep_nanos) / 1e6;
  r.ips = double(stream.size()) / (r.wall_ms / 1e3);
  r.stats = pipeline.stats();
  r.arena_live = NodeArenaStats().live;
  r.log_reads = log->stats().reads - reads_before;
  resolver.EmitMetrics("", [&r](const std::string& name, double value) {
    r.resolver_metrics.emplace_back(name, value);
  });
  return r;
}

/// Replays the stream through the threaded pipeline on the raw-payload
/// path: workers decode, the decode sink feeds the resolver's cache.
///
/// Unlike RunSequential this never sweeps the ephemeral registry. No
/// server runs the threaded driver (HyderServer::Poll drives the
/// sequential one), so there is no sweep cadence to reproduce, and a sweep
/// from the feed thread would run while premeld workers are mid-meld, a
/// schedule no server produces.
RunResult RunThreaded(
    StripedLog* log, const std::vector<IntentionAssembler::Completed>& stream,
    int threads) {
  ServerResolver resolver(log, ResolverOptions{});
  ProviderHandle resolver_metrics = MetricsRegistry::Global().RegisterProvider(
      "resolver.threaded", [&resolver](const MetricsRegistry::Emit& emit) {
        resolver.EmitMetrics("", emit);
      });
  PipelineConfig config = MeldConfig(threads);
  ThreadedPipeline pipeline(
      config, DatabaseState{0, Ref::Null()}, &resolver,
      [&resolver](const NodePtr& n) { resolver.RegisterEphemeral(n); },
      [&resolver](uint64_t seq, const IntentionPtr& intent) {
        resolver.CacheIntention(seq, intent->flats.front().second);
      });
  std::vector<MeldDecision> decisions;
  const uint64_t reads_before = log->stats().reads;
  Stopwatch wall;
  for (const IntentionAssembler::Completed& li : stream) {
    resolver.RecordIntentionBlocks(li.seq, li.positions);
    // Feeds a copy of the payload, as the log-poll thread hands it over.
    HYDER_BENCH_CHECK_OK(pipeline.Feed(li, &decisions));
    decisions.clear();
  }
  HYDER_BENCH_CHECK_OK(pipeline.Finish(&decisions));
  RunResult r;
  r.wall_ms = double(wall.ElapsedNanos()) / 1e6;
  r.ips = double(stream.size()) / (r.wall_ms / 1e3);
  r.stats = pipeline.stats();
  r.arena_live = NodeArenaStats().live;
  r.log_reads = log->stats().reads - reads_before;
  // Snapshot while the pipeline/resolver/log providers are still
  // registered (last run wins — the t=5 threaded replay).
  MaybeWriteMetricsJson();
  return r;
}

void Report(const std::string& engine, int threads, size_t intentions,
            const RunResult& r) {
  CheckConfigEcho(MeldConfig(threads), r.stats);
  const double locks_per =
      double(r.stats.fm_resolver_locks) / double(intentions);
  PrintRow("%s,%d,%zu,%.1f,%.0f,%.2f,%llu,%llu,%.1f,%llu,%.3f,%llu,%llu\n",
           engine.c_str(), threads, intentions, r.wall_ms, r.ips, locks_per,
           (unsigned long long)r.stats.handoff_blocked_pushes,
           (unsigned long long)r.stats.handoff_blocked_pops, r.sweep_ms,
           (unsigned long long)r.arena_live,
           double(r.log_reads) / double(intentions),
           (unsigned long long)r.stats.premeld_skips,
           (unsigned long long)r.stats.premeld_aborts);
  if (threads > 0 && 2 * r.stats.premeld_skips >= intentions) {
    std::fprintf(stderr,
                 "%s t=%d: premeld skipped %llu of %zu intentions; the "
                 "log's snapshots do not lag past t*d\n",
                 engine.c_str(), threads,
                 (unsigned long long)r.stats.premeld_skips, intentions);
    std::abort();
  }
}

/// Times DeserializeIntention alone for every intention in `stream`, in
/// log order with the resolver cache warm (the decode stage's real
/// operating point). Returns per-intention latencies in microseconds.
std::vector<double> DecodeLatencies(
    StripedLog* log, const std::vector<IntentionAssembler::Completed>& stream) {
  ServerResolver resolver(log, ResolverOptions{});
  std::vector<double> us;
  us.reserve(stream.size());
  for (const IntentionAssembler::Completed& li : stream) {
    resolver.RecordIntentionBlocks(li.seq, li.positions);
    Stopwatch sw;
    auto intent =
        DeserializeIntention(li.payload, li.seq, li.block_count, li.txn_id);
    us.push_back(double(sw.ElapsedNanos()) / 1e3);
    HYDER_BENCH_CHECK_OK(intent);
    resolver.CacheIntention(li.seq, (*intent)->flats.front().second);
  }
  return us;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  size_t idx = size_t(p * double(sorted->size() - 1));
  return (*sorted)[idx];
}

void Run() {
  PrintHeader("pipeline_throughput", "meld hot path (DESIGN.md)",
              "same engine, two drivers: threaded within noise of "
              "sequential at each t");
  const uint64_t txns = uint64_t(3000 * BenchScale());
  PrintColumns(
      "engine,threads,intentions,wall_ms,intentions_per_sec,"
      "fm_locks_per_intention,blocked_pushes,blocked_pops,sweep_ms,"
      "arena_live,log_reads_per_intention,premeld_skips,premeld_aborts");
  for (int t : {0, 2, 5}) {
    // One log per t: the replay engines must match the generation config
    // (see GenerateLog), so sequential-vs-threaded is compared per t.
    StripedLog log(StripedLogOptions{});
    const uint64_t appended = GenerateLog(&log, txns, MeldConfig(t));
    std::vector<IntentionAssembler::Completed> stream = ReadBack(&log);
    if (stream.size() != appended) {
      std::fprintf(stderr, "read-back lost intentions: %zu of %llu\n",
                   stream.size(), (unsigned long long)appended);
      std::abort();
    }
    const RunResult sequential = RunSequential(&log, stream, t);
    Report("sequential", t, stream.size(), sequential);
    // That replay's resolver is gone: publish its final counters for the
    // metrics dump the threaded replay writes.
    ProviderHandle sequential_metrics =
        MetricsRegistry::Global().RegisterProvider(
            "resolver.sequential",
            [&sequential](const MetricsRegistry::Emit& emit) {
              for (const auto& [name, value] : sequential.resolver_metrics) {
                emit(name, value);
              }
            });
    Report("threaded", t, stream.size(), RunThreaded(&log, stream, t));
  }

  // Decode-stage latency: nodes materialize later, in premeld/meld, and
  // for premeld-killed intentions mostly never, so decode is parse and
  // validate plus the root.
  PrintColumns(
      "intentions,decode_p50_us,decode_p90_us,decode_p99_us,decode_max_us,"
      "decode_total_ms");
  StripedLog log(StripedLogOptions{});
  const uint64_t appended = GenerateLog(&log, txns, MeldConfig(5));
  std::vector<IntentionAssembler::Completed> stream = ReadBack(&log);
  if (stream.size() != appended) {
    std::fprintf(stderr, "read-back lost intentions: %zu of %llu\n",
                 stream.size(), (unsigned long long)appended);
    std::abort();
  }
  std::vector<double> us = DecodeLatencies(&log, stream);
  double total = 0;
  for (double v : us) total += v;
  std::sort(us.begin(), us.end());
  PrintRow("%zu,%.3f,%.3f,%.3f,%.3f,%.2f\n", stream.size(),
           Percentile(&us, 0.50), Percentile(&us, 0.90),
           Percentile(&us, 0.99), us.empty() ? 0 : us.back(), total / 1e3);
}

}  // namespace
}  // namespace bench
}  // namespace hyder

int main(int argc, char** argv) {
  hyder::bench::InitBenchIO(&argc, argv);
  hyder::bench::Run();
  return 0;
}
