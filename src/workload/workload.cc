#include "workload/workload.h"

#include <algorithm>

namespace hyder {

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options)
    : options_(options), rng_(options.seed) {
  if (options_.distribution == AccessDistribution::kHotspot) {
    hotspot_.emplace(options_.db_size, options_.hotspot_fraction);
  } else if (options_.distribution == AccessDistribution::kZipf) {
    zipf_.emplace(options_.db_size, options_.zipf_theta);
  }
}

Key WorkloadGenerator::NextKey() {
  switch (options_.distribution) {
    case AccessDistribution::kUniform:
      return rng_.Uniform(options_.db_size);
    case AccessDistribution::kHotspot:
      return hotspot_->Next(rng_);
    case AccessDistribution::kZipf:
      // Scramble the rank so the hot keys spread over the key space (as
      // YCSB does); rank 0 stays hottest.
      return Mix64(zipf_->Next(rng_)) % options_.db_size;
  }
  return 0;
}

std::string WorkloadGenerator::NextValue() {
  std::string v = "v" + std::to_string(value_counter_++) + "-";
  if (v.size() < kValueBytes) v.append(kValueBytes - v.size(), 'x');
  return v;
}

Status WorkloadGenerator::FillWriteTransaction(Transaction& txn) {
  int updates = std::max(
      1, static_cast<int>(options_.ops_per_txn * options_.update_fraction +
                          0.5));
  updates = std::min(updates, options_.ops_per_txn);
  const int reads = options_.ops_per_txn - updates;
  for (int i = 0; i < reads; ++i) {
    HYDER_ASSIGN_OR_RETURN(auto value, txn.Get(NextKey()));
    (void)value;
  }
  for (int i = 0; i < updates; ++i) {
    HYDER_RETURN_IF_ERROR(txn.Put(NextKey(), NextValue()));
  }
  return Status::OK();
}

Status WorkloadGenerator::FillReadOnlyTransaction(Transaction& txn) {
  for (int i = 0; i < options_.ops_per_txn; ++i) {
    HYDER_ASSIGN_OR_RETURN(auto value, txn.Get(NextKey()));
    (void)value;
  }
  return Status::OK();
}

Status WorkloadGenerator::SeedDatabase(HyderServer& server) {
  // Chunked loads keep each genesis intention within the per-intention
  // node-index budget and let meld interleave.
  constexpr uint64_t kChunk = 100'000;
  uint64_t next = 0;
  while (next < options_.db_size) {
    Transaction txn = server.Begin(IsolationLevel::kSnapshot);
    const uint64_t end = std::min(options_.db_size, next + kChunk);
    for (; next < end; ++next) {
      HYDER_RETURN_IF_ERROR(
          txn.Put(next, "seed-" + std::to_string(next)));
    }
    HYDER_ASSIGN_OR_RETURN(auto submitted, server.Submit(std::move(txn)));
    (void)submitted;
    HYDER_ASSIGN_OR_RETURN(auto decisions, server.Poll());
    for (const MeldDecision& d : decisions) {
      if (!d.committed) {
        return Status::Internal("seed transaction aborted: " + d.reason());
      }
    }
  }
  return Status::OK();
}

}  // namespace hyder
