#ifndef HYDER2_BENCH_BENCH_COMMON_H_
#define HYDER2_BENCH_BENCH_COMMON_H_

// Shared experiment harness for the figure/table reproduction benches.
//
// Each bench binary reproduces one figure or table from the paper's
// evaluation (§6) and prints a CSV-ish table with the same series. The
// work metrics (tree nodes visited per stage, ephemeral nodes created,
// conflict-zone lengths, abort rates) are *measured exactly* from real
// executions of the real algorithms. Throughput is derived with the
// paper's own performance model — "the slowest pipeline stage determines
// transaction throughput" (§1) — from per-stage CPU service times measured
// on the sequential engine, which runs each stage to completion on one
// thread so no stage's time is inflated by another competing for cores
// (see DESIGN.md, "Substitutions"). Wall-clock engine comparisons live in
// pipeline_throughput. Set HYDER_BENCH_SCALE to scale run lengths.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "log/striped_log.h"
#include "meld/pipeline.h"
#include "server/driver.h"
#include "server/open_loop.h"
#include "server/server.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace hyder {
namespace bench {

/// One experiment = one fully configured end-to-end system.
struct ExperimentConfig {
  PipelineConfig pipeline;
  WorkloadOptions workload;
  IsolationLevel isolation = IsolationLevel::kSerializable;
  /// Transactions kept in flight: controls the conflict-zone length
  /// (paper: servers × 20 threads × 80 in-flight; scaled down here).
  uint64_t inflight = 1000;
  /// Intentions melded during the measured phase.
  uint64_t intentions = 2000;
  uint64_t warmup = 400;
  /// Model parameters for the pipeline-throughput derivation.
  int ds_threads = 2;  ///< The paper uses several deserialization threads.
  StripedLogOptions log;
};

/// Per-intention stage service times (microseconds of CPU).
struct StageTimes {
  double ds_us = 0;
  double pm_us = 0;  ///< Aggregate premeld work (divide by threads).
  double gm_us = 0;
  double fm_us = 0;
};

struct ExperimentResult {
  PipelineStats stats;  ///< Measured-phase deltas.
  DriverReport report;
  double fm_nodes_per_txn = 0;
  double pm_nodes_per_txn = 0;
  double gm_nodes_per_txn = 0;
  double fm_ephemeral_per_txn = 0;
  double total_ephemeral_per_txn = 0;
  double conflict_zone_blocks = 0;  ///< Seen by final meld (post-premeld).
  double abort_rate = 0;
  StageTimes times;
  /// Committed transactions/second from the pipeline bottleneck model.
  double meld_bound_tps = 0;
  /// Which stage bounds it ("ds", "pm", "gm", "fm").
  std::string bottleneck;
  /// Measured CPU cost of executing + serializing one write transaction.
  double exec_us_per_txn = 0;
  /// Measured CPU cost of one read-only transaction (never melded).
  double read_txn_us = 0;
};

/// Aborts, naming the knob, when a PipelineConfig knob the stages report
/// in `stats.config_echo` differs from `requested` or was never stamped
/// (-1): a knob dropped between a bench flag and the worker that consumes
/// it shows up here instead of as a silently mislabeled row.
void CheckConfigEcho(const PipelineConfig& requested,
                     const PipelineStats& stats);

/// Runs one experiment end to end and checks its config echo; prints nothing.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Runs one *open-loop* experiment: seeds the database, then drives the
/// server from a Poisson arrival schedule at `rate_tps` for `arrivals`
/// transactions (server/open_loop.h). Decision latencies are measured
/// from intended starts (coordinated-omission-safe) and land in the
/// registry histogram "slo.decision_latency_us[.<label>]", so a
/// --metrics-json run hands tools/slo_report.py everything it needs.
/// Checks the config echo like RunExperiment. Prints nothing.
SloReport RunOpenLoopExperiment(const ExperimentConfig& config,
                                double rate_tps, uint64_t arrivals,
                                const std::string& label);

/// Offered load for open-loop benches, in transactions/second. Set by
/// `--arrival-rate=TPS` (stripped in InitBenchIO) or the
/// HYDER_BENCH_ARRIVAL_RATE env var; 0 (the default) means "let the
/// bench pick" — each open-loop bench documents its own default sweep.
double BenchArrivalRate();

/// HYDER_BENCH_SCALE (default 1.0) multiplies run lengths.
double BenchScale();

/// Machine-readable output. Call first in main(): strips `--json[=path]`
/// from argv and arms the JSON emitter; the `HYDER_BENCH_JSON=<path>`
/// environment variable arms it too. When armed, the tables printed via
/// PrintColumns/PrintRow plus the header metadata (bench, figure,
/// paper_shape, scale) are written as JSON at process exit — bare
/// `--json` defaults the path to `BENCH_<bench>.json`.
///
/// Also strips the observability flags:
///   --trace-out=PATH     turn the lifecycle tracer on (common/trace.h)
///                        and write the raw event dump to PATH at exit
///                        (convert with tools/trace_export);
///   --metrics-json=PATH  write a MetricsRegistry JSON snapshot to PATH
///                        (at exit, or where the bench calls
///                        MaybeWriteMetricsJson()).
/// Environment equivalents: HYDER_TRACE_OUT / HYDER_METRICS_JSON.
void InitBenchIO(int* argc, char** argv);

/// Writes the metrics JSON snapshot now, if --metrics-json is armed
/// (no-op otherwise). Benches call this while their servers/pipelines/logs
/// are still alive so the per-object registry providers are captured; the
/// atexit fallback only sees process-lifetime instruments. Later calls
/// overwrite — the last snapshot wins.
void MaybeWriteMetricsJson();

/// Drains the tracer and (re)writes the raw dump now, if --trace-out is
/// armed. Also runs at exit; the drain is non-destructive, so each write
/// holds every event recorded so far.
void MaybeWriteTraceDump();

/// Standard header: bench name, the paper figure, and the qualitative
/// shape being reproduced. Registers the JSON flush (atexit) when the
/// emitter is armed.
void PrintHeader(const std::string& bench, const std::string& figure,
                 const std::string& paper_shape);

/// Prints the comma-separated column names and starts a new recorded
/// table (a bench may emit several).
void PrintColumns(const std::string& columns);

/// printf-style row output: prints the formatted line verbatim and
/// records its comma-separated cells into the current table.
void PrintRow(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Silent variants for harnesses that already print their own output
/// (micro_benchmarks' google-benchmark reporter).
void RecordColumns(const std::vector<std::string>& columns);
void RecordRow(const std::vector<std::string>& cells);

/// The paper's default configuration helpers.
ExperimentConfig DefaultWriteOnlyConfig();

/// Applies an optimization selection to a config (the four bars of
/// Fig. 10): "base", "grp", "pre", "opt".
void ApplyVariant(const std::string& variant, ExperimentConfig* config);

/// Computes throughput from stage times via the bottleneck model.
double PipelineTps(const StageTimes& times, const PipelineConfig& pipeline,
                   int ds_threads, double commit_fraction,
                   std::string* bottleneck);

}  // namespace bench
}  // namespace hyder

#endif  // HYDER2_BENCH_BENCH_COMMON_H_
