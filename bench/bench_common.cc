#include "bench_common.h"

#include <algorithm>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "check.h"
#include "common/registry.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace hyder {
namespace bench {

double BenchScale() {
  const char* env = std::getenv("HYDER_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

namespace {

double& ArrivalRateSlot() {
  static double rate = -1.0;  // < 0 = not yet resolved; 0 = unset.
  return rate;
}

double ParseArrivalRate(const char* s, const char* origin) {
  double v = std::atof(s);
  if (v <= 0) {
    std::fprintf(stderr, "bench: bad %s arrival rate %s (want > 0 tps)\n",
                 origin, s);
    std::exit(2);
  }
  return v;
}

/// State of the JSON emitter. Armed by InitBenchIO (--json / the
/// HYDER_BENCH_JSON env var); flushed by an atexit hook so every early
/// `return` in a bench main still produces the file.
struct JsonEmitter {
  bool armed = false;
  std::string path;  ///< Empty until PrintHeader if defaulted.
  std::string bench, figure, paper_shape;
  struct Table {
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<Table> tables;
};

JsonEmitter& Emitter() {
  static JsonEmitter e;
  return e;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void FlushJson() {
  JsonEmitter& e = Emitter();
  if (!e.armed) return;
  std::string json = "{\n  \"bench\": ";
  AppendJsonString(&json, e.bench);
  json += ",\n  \"figure\": ";
  AppendJsonString(&json, e.figure);
  json += ",\n  \"paper_shape\": ";
  AppendJsonString(&json, e.paper_shape);
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", BenchScale());
  json += ",\n  \"scale\": ";
  json += scale;
  json += ",\n  \"tables\": [";
  for (size_t t = 0; t < e.tables.size(); ++t) {
    json += t == 0 ? "\n    {\"columns\": [" : ",\n    {\"columns\": [";
    const JsonEmitter::Table& table = e.tables[t];
    for (size_t i = 0; i < table.columns.size(); ++i) {
      if (i > 0) json += ", ";
      AppendJsonString(&json, table.columns[i]);
    }
    json += "], \"rows\": [";
    for (size_t r = 0; r < table.rows.size(); ++r) {
      json += r == 0 ? "\n      [" : ",\n      [";
      for (size_t i = 0; i < table.rows[r].size(); ++i) {
        if (i > 0) json += ", ";
        AppendJsonString(&json, table.rows[r][i]);
      }
      json += "]";
    }
    json += table.rows.empty() ? "]}" : "\n    ]}";
  }
  json += e.tables.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::FILE* f = std::fopen(e.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", e.path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

/// Observability sinks armed by InitBenchIO (--trace-out / --metrics-json
/// or the HYDER_TRACE_OUT / HYDER_METRICS_JSON env vars).
struct Observability {
  std::string trace_path;
  std::string metrics_path;
  /// Set by an explicit MaybeWriteMetricsJson() call; the atexit fallback
  /// skips rewriting so a mid-run snapshot (taken while per-object
  /// providers were alive) is not clobbered by a poorer end-of-process one.
  bool metrics_written = false;
};

Observability& Obs() {
  static Observability o;
  return o;
}

void WriteFileOrWarn(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

void FlushObservability() {
  if (!Obs().metrics_written) MaybeWriteMetricsJson();
  MaybeWriteTraceDump();
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (true) {
    size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

double BenchArrivalRate() {
  double& slot = ArrivalRateSlot();
  if (slot < 0) {
    const char* env = std::getenv("HYDER_BENCH_ARRIVAL_RATE");
    slot = env != nullptr
               ? ParseArrivalRate(env, "HYDER_BENCH_ARRIVAL_RATE")
               : 0.0;
  }
  return slot;
}

void InitBenchIO(int* argc, char** argv) {
  JsonEmitter& e = Emitter();
  Observability& o = Obs();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      e.armed = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      e.armed = true;
      e.path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      o.trace_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      o.metrics_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--arrival-rate=", 15) == 0) {
      ArrivalRateSlot() = ParseArrivalRate(argv[i] + 15, "--arrival-rate");
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (const char* env = std::getenv("HYDER_BENCH_JSON")) {
    e.armed = true;
    // "1" (or empty) means "armed, default path", like bare --json.
    if (std::string(env) != "1") e.path = env;
  }
  if (const char* env = std::getenv("HYDER_TRACE_OUT")) o.trace_path = env;
  if (const char* env = std::getenv("HYDER_METRICS_JSON")) {
    o.metrics_path = env;
  }
  if (!o.trace_path.empty()) Tracer::Enable();
  if (!o.trace_path.empty() || !o.metrics_path.empty()) {
    static bool registered = false;
    if (!registered) {
      registered = true;
      std::atexit(FlushObservability);
    }
  }
}

void MaybeWriteMetricsJson() {
  Observability& o = Obs();
  if (o.metrics_path.empty()) return;
  WriteFileOrWarn(o.metrics_path, MetricsRegistry::Global().ToJson());
  o.metrics_written = true;
}

void MaybeWriteTraceDump() {
  Observability& o = Obs();
  if (o.trace_path.empty()) return;
  WriteFileOrWarn(o.trace_path, SerializeTraceDump(Tracer::Drain()));
}

void PrintHeader(const std::string& bench, const std::string& figure,
                 const std::string& paper_shape) {
  std::printf("# %s — reproduces %s\n", bench.c_str(), figure.c_str());
  std::printf("# paper_shape: %s\n", paper_shape.c_str());
  std::printf("# scale: %.2f (set HYDER_BENCH_SCALE to adjust)\n",
              BenchScale());
  JsonEmitter& e = Emitter();
  // Arm from the environment even when main never called InitBenchIO.
  if (!e.armed) {
    if (const char* env = std::getenv("HYDER_BENCH_JSON")) {
      e.armed = true;
      if (std::string(env) != "1") e.path = env;
    }
  }
  e.bench = bench;
  e.figure = figure;
  e.paper_shape = paper_shape;
  if (e.armed) {
    if (e.path.empty()) e.path = "BENCH_" + bench + ".json";
    static bool registered = false;
    if (!registered) {
      registered = true;
      std::atexit(FlushJson);
    }
  }
}

void RecordColumns(const std::vector<std::string>& columns) {
  JsonEmitter& e = Emitter();
  e.tables.emplace_back();
  e.tables.back().columns = columns;
}

void RecordRow(const std::vector<std::string>& cells) {
  JsonEmitter& e = Emitter();
  if (e.tables.empty()) e.tables.emplace_back();
  e.tables.back().rows.push_back(cells);
}

void PrintColumns(const std::string& columns) {
  std::printf("%s\n", columns.c_str());
  RecordColumns(SplitCsv(columns));
}

void PrintRow(const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  std::fputs(buf, stdout);
  std::string line(buf);
  while (!line.empty() && line.back() == '\n') line.pop_back();
  RecordRow(SplitCsv(line));
}

ExperimentConfig DefaultWriteOnlyConfig() {
  ExperimentConfig config;
  // Paper defaults (§6.1), scaled: 10M x 1KB items -> 400K x 16B. Meld
  // cost depends on tree depth and conflict-zone geometry, not payload
  // bytes; the zone:db ratio (and hence the abort rate, §6.2) is kept near
  // the paper's. The database size does not scale with HYDER_BENCH_SCALE —
  // only run lengths do — so abort rates stay comparable across scales.
  config.workload.db_size = 400'000;
  config.workload.ops_per_txn = 10;
  config.workload.update_fraction = 0.2;  // 8 reads + 2 writes.
  config.workload.distribution = AccessDistribution::kUniform;
  config.isolation = IsolationLevel::kSerializable;
  // Paper: 20 threads x 80 in-flight per server (up to 16K concurrent);
  // scaled to keep the premeld zone ratio (~100:1, §3.2) meaningful.
  config.inflight = 1500;
  config.intentions = uint64_t(1500 * BenchScale());
  config.warmup = 400;
  config.pipeline.state_retention = config.inflight + 256;
  config.log.block_size = 8192;
  config.log.storage_units = 6;
  return config;
}

void ApplyVariant(const std::string& variant, ExperimentConfig* config) {
  config->pipeline.premeld_threads = 0;
  config->pipeline.group_meld = false;
  if (variant == "pre" || variant == "opt") {
    // The paper's best setting: five premeld threads, distance 10 (§6.4.6).
    config->pipeline.premeld_threads = 5;
    config->pipeline.premeld_distance = 10;
  }
  if (variant == "grp" || variant == "opt") {
    config->pipeline.group_meld = true;
  }
  config->pipeline.state_retention =
      config->inflight +
      uint64_t(config->pipeline.premeld_threads) *
          uint64_t(config->pipeline.premeld_distance) +
      256;
}

double PipelineTps(const StageTimes& times, const PipelineConfig& pipeline,
                   int ds_threads, double commit_fraction,
                   std::string* bottleneck) {
  struct Stage {
    const char* name;
    double us;
  };
  Stage stages[] = {
      {"ds", times.ds_us / std::max(1, ds_threads)},
      {"pm", pipeline.premeld_threads > 0
                 ? times.pm_us / pipeline.premeld_threads
                 : 0.0},
      {"gm", pipeline.group_meld ? times.gm_us : 0.0},
      {"fm", times.fm_us},
  };
  const Stage* worst = &stages[0];
  for (const Stage& s : stages) {
    if (s.us > worst->us) worst = &s;
  }
  if (bottleneck != nullptr) *bottleneck = worst->name;
  if (worst->us <= 0) return 0;
  return 1e6 / worst->us * commit_fraction;
}

void CheckConfigEcho(const PipelineConfig& requested,
                     const PipelineStats& stats) {
  const ConfigEcho& echo = stats.config_echo;
  const struct {
    const char* knob;
    int64_t requested;
    int64_t echoed;
  } knobs[] = {
      {"premeld_threads", requested.premeld_threads, echo.premeld_threads},
      {"premeld_distance", requested.premeld_distance,
       echo.premeld_distance},
      {"group_meld", requested.group_meld ? 1 : 0, echo.group_meld},
      {"state_retention", int64_t(requested.state_retention),
       echo.state_retention},
      {"disable_graft_fastpath", requested.disable_graft_fastpath ? 1 : 0,
       echo.disable_graft_fastpath},
  };
  for (const auto& k : knobs) {
    if (k.echoed != k.requested) {
      std::fprintf(stderr,
                   "config echo: %s %lld (-1 = never stamped), "
                   "requested %lld\n",
                   k.knob, (long long)k.echoed, (long long)k.requested);
      std::abort();
    }
  }
}

SloReport RunOpenLoopExperiment(const ExperimentConfig& config,
                                double rate_tps, uint64_t arrivals,
                                const std::string& label) {
  StripedLog log(config.log);
  ServerOptions options;
  options.pipeline = config.pipeline;
  options.max_inflight = config.inflight;
  options.resolver.intention_cache_capacity =
      config.inflight + config.pipeline.state_retention;
  HyderServer server(&log, options);

  WorkloadGenerator gen(config.workload);
  Status seeded = gen.SeedDatabase(server);
  if (!seeded.ok()) {
    std::fprintf(stderr, "seed failed: %s\n", seeded.ToString().c_str());
    std::exit(1);
  }

  ArrivalOptions arrival;
  arrival.rate_tps = rate_tps;
  arrival.count = arrivals;
  arrival.seed = config.workload.seed ^ 0x9e3779b97f4a7c15ull;
  const std::vector<uint64_t> schedule = BuildArrivalSchedule(arrival);

  OpenLoopOptions olo;
  olo.isolation = config.isolation;
  olo.label = label;
  OpenLoopDriver driver(&server, olo, [&gen](Transaction& txn) {
    return gen.FillWriteTransaction(txn);
  });
  Result<SloReport> report = driver.Run(schedule);
  if (!report.ok()) {
    std::fprintf(stderr, "open-loop driver failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  CheckConfigEcho(config.pipeline, server.stats());
  // Snapshot while the server (contention sketch, per-cause counters) and
  // driver providers are still alive; last run wins, and the cumulative
  // slo.decision_latency_us.<label> histograms survive every run.
  MaybeWriteMetricsJson();
  return *report;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  StripedLog log(config.log);
  ServerOptions options;
  options.pipeline = config.pipeline;
  options.max_inflight = config.inflight + 16;
  options.resolver.intention_cache_capacity =
      config.inflight + config.pipeline.state_retention;
  HyderServer server(&log, options);

  WorkloadGenerator gen(config.workload);
  Status seeded = gen.SeedDatabase(server);
  if (!seeded.ok()) {
    std::fprintf(stderr, "seed failed: %s\n", seeded.ToString().c_str());
    std::exit(1);
  }

  ClosedLoopDriver driver(
      &server, config.inflight, config.isolation,
      [&gen](Transaction& txn) { return gen.FillWriteTransaction(txn); });

  auto run = [&](uint64_t n) {
    Status st = driver.Run(n);
    if (!st.ok()) {
      std::fprintf(stderr, "driver failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  };
  run(config.warmup);
  PipelineStats before = server.stats();
  DriverReport report_before = driver.report();
  run(config.intentions);
  PipelineStats after = server.stats();
  DriverReport report_after = driver.report();

  ExperimentResult r;
  // Deltas over the measured phase.
  r.stats = after;
  r.stats.intentions -= before.intentions;
  r.stats.committed -= before.committed;
  r.stats.aborted -= before.aborted;
  r.stats.premeld_aborts -= before.premeld_aborts;
  r.stats.premeld_skips -= before.premeld_skips;
  r.stats.final_melds -= before.final_melds;
  r.stats.conflict_zone_sum -= before.conflict_zone_sum;
  auto delta = [](MeldWork a, const MeldWork& b) {
    a.nodes_visited -= b.nodes_visited;
    a.ephemeral_created -= b.ephemeral_created;
    a.grafts -= b.grafts;
    a.conflict_checks -= b.conflict_checks;
    a.splits -= b.splits;
    a.cpu_nanos -= b.cpu_nanos;
    return a;
  };
  r.stats.deserialize = delta(after.deserialize, before.deserialize);
  r.stats.premeld = delta(after.premeld, before.premeld);
  r.stats.group_meld = delta(after.group_meld, before.group_meld);
  r.stats.final_meld = delta(after.final_meld, before.final_meld);

  r.report.submitted = report_after.submitted - report_before.submitted;
  r.report.committed = report_after.committed - report_before.committed;
  r.report.aborted = report_after.aborted - report_before.aborted;

  const double n = double(std::max<uint64_t>(1, r.stats.intentions));
  r.fm_nodes_per_txn = double(r.stats.final_meld.nodes_visited) / n;
  r.pm_nodes_per_txn = double(r.stats.premeld.nodes_visited) / n;
  r.gm_nodes_per_txn = double(r.stats.group_meld.nodes_visited) / n;
  r.fm_ephemeral_per_txn = double(r.stats.final_meld.ephemeral_created) / n;
  r.total_ephemeral_per_txn =
      double(r.stats.final_meld.ephemeral_created +
             r.stats.premeld.ephemeral_created +
             r.stats.group_meld.ephemeral_created) /
      n;
  r.conflict_zone_blocks =
      r.stats.final_melds == 0
          ? 0
          : double(r.stats.conflict_zone_sum) / double(r.stats.final_melds);
  const uint64_t decided = r.report.committed + r.report.aborted;
  r.abort_rate = decided == 0 ? 0 : double(r.report.aborted) / decided;

  r.times.ds_us = double(r.stats.deserialize.cpu_nanos) / 1e3 / n;
  r.times.pm_us = double(r.stats.premeld.cpu_nanos) / 1e3 / n;
  r.times.gm_us = double(r.stats.group_meld.cpu_nanos) / 1e3 / n;
  r.times.fm_us = double(r.stats.final_meld.cpu_nanos) / 1e3 / n;
  r.meld_bound_tps =
      PipelineTps(r.times, config.pipeline, config.ds_threads,
                  1.0 - r.abort_rate, &r.bottleneck);

  // Executor-side costs: execution + serialization of write transactions,
  // and read-only transactions (which never touch the pipeline).
  {
    const int kSamples = 100;
    // The closed-loop driver returns with its whole in-flight window still
    // pending, and `max_inflight` can be smaller than kSamples. Submit in
    // chunks that fit the admission headroom, draining before each chunk
    // outside the timed region, so admission control never rejects a
    // sampled submit (a Busy here aborts the bench).
    uint64_t exec_nanos = 0;
    for (int done = 0; done < kSamples;) {
      HYDER_BENCH_CHECK_OK(server.Poll());
      const int chunk = int(std::min<uint64_t>(
          kSamples - done, options.max_inflight - server.inflight()));
      CpuStopwatch cpu;
      for (int i = 0; i < chunk; ++i) {
        Transaction txn = server.Begin(config.isolation);
        HYDER_BENCH_CHECK_OK(gen.FillWriteTransaction(txn));
        HYDER_BENCH_CHECK_OK(server.Submit(std::move(txn)));
      }
      exec_nanos += cpu.ElapsedNanos();
      done += chunk;
    }
    r.exec_us_per_txn = exec_nanos / 1e3 / kSamples;
    // Drain what we just submitted.
    HYDER_BENCH_CHECK_OK(server.Poll());
    CpuStopwatch read_cpu;
    for (int i = 0; i < kSamples; ++i) {
      Transaction txn = server.Begin(config.isolation);
      HYDER_BENCH_CHECK_OK(gen.FillReadOnlyTransaction(txn));
      HYDER_BENCH_CHECK_OK(server.Submit(std::move(txn)));
    }
    r.read_txn_us = read_cpu.ElapsedNanos() / 1e3 / kSamples;
  }
  CheckConfigEcho(config.pipeline, server.stats());
  return r;
}

}  // namespace bench
}  // namespace hyder
