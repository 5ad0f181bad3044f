#ifndef HYDER2_COMMON_REGISTRY_H_
#define HYDER2_COMMON_REGISTRY_H_

// Process-wide metrics registry: the one place runtime counters, gauges
// and latency histograms live, replacing the per-subsystem ToString()
// plumbing (PipelineStats, ArenaStats, LogStats, resolver counters, ...)
// that previously had to be wired by hand into every bench and example.
//
// Two kinds of instruments:
//
//  * Push-model `LatencyHistogram`s: created once by name (stable
//    pointers, process lifetime), updated on the hot path. The pipeline's
//    per-stage latency histograms (append->durable, durable->decision,
//    hand-off blocked time) live here.
//  * Pull-model *providers*: a subsystem registers a callback that emits
//    `field -> value` pairs at snapshot time, so stats structs that are
//    owned and mutated by one component (PipelineStats, LogStats,
//    ArenaStats) are read exactly when a snapshot is taken, with no
//    duplicate bookkeeping. Providers unregister via the returned RAII
//    handle (servers, logs and drivers are per-test/per-bench objects).
//
// Exporters: DumpMetrics() (text, one `name value` line per field) and
// ToJson() (machine-readable snapshot following the bench JSON emitter
// conventions; see bench/bench_common.h). The bench harness's
// --metrics-json= flag writes the latter; tools/check_trace.py validates
// its schema in CI.
//
// Concurrency: histograms are internally synchronized and safe from any
// thread. snapshot()/DumpMetrics()/ToJson() hold the registry
// mutex while invoking providers, so a provider must emit plain values it
// can read race-free and must never call back into the registry.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/thread_annotations.h"

namespace hyder {

/// Thread-safe wrapper around the log-bucketed Histogram. Values are
/// microseconds by convention (suffix names with `_us`).
class LatencyHistogram {
 public:
  void Add(uint64_t value) {
    MutexLock lock(mu_);
    hist_.Add(value);
  }
  Histogram snapshot() const {
    MutexLock lock(mu_);
    return hist_;
  }

 private:
  mutable Mutex mu_;
  Histogram hist_ GUARDED_BY(mu_);
};

class MetricsRegistry;

/// RAII registration of a pull-model provider; unregisters on destruction.
/// Movable, not copyable.
class ProviderHandle {
 public:
  ProviderHandle() = default;
  ProviderHandle(ProviderHandle&& o) noexcept
      : registry_(o.registry_), id_(o.id_) {
    o.registry_ = nullptr;
  }
  ProviderHandle& operator=(ProviderHandle&& o) noexcept;
  ~ProviderHandle();
  ProviderHandle(const ProviderHandle&) = delete;
  ProviderHandle& operator=(const ProviderHandle&) = delete;

 private:
  friend class MetricsRegistry;
  ProviderHandle(MetricsRegistry* registry, uint64_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

class MetricsRegistry {
 public:
  /// The process-wide instance every subsystem registers into.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get by name. The returned pointer is stable for the
  /// registry's lifetime (process lifetime for Global()).
  LatencyHistogram* histogram(const std::string& name) EXCLUDES(mu_);

  /// Emit callback handed to providers: `emit(field, value)` publishes one
  /// numeric field under the provider's prefix ("<prefix>.<field>").
  using Emit = std::function<void(const std::string&, double)>;
  using Provider = std::function<void(const Emit&)>;

  /// Registers a snapshot-time provider. If `prefix` is already in use the
  /// registered prefix gets a "#N" suffix, so two servers registering
  /// "server0" coexist as "server0" and "server0#2". The provider runs on
  /// whatever thread snapshots; it must not call back into the registry.
  [[nodiscard]] ProviderHandle RegisterProvider(const std::string& prefix,
                                                Provider provider)
      EXCLUDES(mu_);

  struct Snapshot {
    /// Provider fields, sorted by name (deterministic output).
    std::vector<std::pair<std::string, double>> values;
    /// Histogram copies, sorted by name.
    std::vector<std::pair<std::string, Histogram>> histograms;
  };
  Snapshot TakeSnapshot() const EXCLUDES(mu_);

  /// Text export: one "name value" line per field, then one summary line
  /// per histogram.
  std::string DumpMetrics() const EXCLUDES(mu_);

  /// JSON export (bench JSON emitter conventions): an object with
  /// "metrics" (flat name->value) and "histograms" (name->{count, mean,
  /// min, p50, p90, p99, p999, max}).
  std::string ToJson() const EXCLUDES(mu_);

 private:
  friend class ProviderHandle;
  struct ProviderEntry {
    uint64_t id;
    std::string prefix;
    Provider fn;
  };
  void Unregister(uint64_t id) EXCLUDES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      GUARDED_BY(mu_);
  std::vector<ProviderEntry> providers_ GUARDED_BY(mu_);
  uint64_t next_provider_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace hyder

#endif  // HYDER2_COMMON_REGISTRY_H_
