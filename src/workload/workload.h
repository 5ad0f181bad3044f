#ifndef HYDER2_WORKLOAD_WORKLOAD_H_
#define HYDER2_WORKLOAD_WORKLOAD_H_

#include <optional>
#include <string>

#include "common/random.h"
#include "server/server.h"

namespace hyder {

/// Key-access distribution for the YCSB-style generator (§6.1, §6.4.5).
enum class AccessDistribution {
  kUniform,
  /// Fraction x of the items receives fraction (1-x) of the accesses.
  kHotspot,
  kZipf,
};

/// Parameters of the workload generator, "adapted from the Yahoo! Cloud
/// Serving Benchmark, adding support for multi-operation transactions"
/// (§6.1). Defaults mirror the paper's: 10 operations per transaction with
/// 8 reads and 2 writes, keys selected uniformly.
struct WorkloadOptions {
  uint64_t db_size = 100'000;
  int ops_per_txn = 10;
  /// Fraction of a write transaction's operations that are updates
  /// (0.2 -> the paper's default 8 reads + 2 writes); at least one update.
  double update_fraction = 0.2;
  AccessDistribution distribution = AccessDistribution::kUniform;
  /// Hotspot parameter x (§6.4.5); 1.0 degenerates to uniform.
  double hotspot_fraction = 1.0;
  double zipf_theta = 0.99;
  uint64_t seed = 42;
};

/// Deterministic multi-operation transaction generator.
class WorkloadGenerator {
 public:
  /// `NextValue` pads every value to at least this many bytes (the paper's
  /// 16-byte payloads, §6.4.2).
  static constexpr size_t kValueBytes = 16;

  explicit WorkloadGenerator(WorkloadOptions options);

  /// Fills `txn` with one write transaction's operations (reads first, then
  /// updates, matching the paper's read-then-write transactions).
  Status FillWriteTransaction(Transaction& txn);

  /// Fills `txn` with `ops_per_txn` reads.
  Status FillReadOnlyTransaction(Transaction& txn);

  /// Seeds the database with `db_size` items through chunked transactions
  /// on `server` (call once on an empty cluster, then poll all servers).
  Status SeedDatabase(HyderServer& server);

  Key NextKey();
  std::string NextValue();

  const WorkloadOptions& options() const { return options_; }

 private:
  WorkloadOptions options_;
  Rng rng_;
  std::optional<HotspotGenerator> hotspot_;
  std::optional<ZipfGenerator> zipf_;
  uint64_t value_counter_ = 0;
};

}  // namespace hyder

#endif  // HYDER2_WORKLOAD_WORKLOAD_H_
