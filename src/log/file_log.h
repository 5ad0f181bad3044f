#ifndef HYDER2_LOG_FILE_LOG_H_
#define HYDER2_LOG_FILE_LOG_H_

#include <cstdio>
#include <memory>
#include <string>

#include "common/registry.h"
#include "common/thread_annotations.h"
#include "log/shared_log.h"

namespace hyder {

/// Durable, file-backed shared log: the persistence half of the CORFU
/// substitution (DESIGN.md). Blocks live in fixed-size slots of an
/// append-only file — position p occupies byte range [(p-1)·slot, p·slot) —
/// so reads are a single positioned I/O, exactly the random-access pattern
/// the paper prescribes for SSD-backed logs (§1: "the log should be stored
/// on solid state disks").
///
/// Slot layout: [u32 len|kCrcFlag][u32 crc32c(payload)][payload]
/// [zero padding]. The high bit of the length word marks a written slot;
/// the CRC covers the payload, so a slot whose stored bytes decayed
/// surfaces as `DataLoss` on read instead of feeding garbage to meld. A file
/// whose first slot is written without the flag bit (the retired pre-CRC
/// layout, [u32 len][payload]) fails `Open` with `NotSupported` rather than
/// being read as an empty log and overwritten.
///
/// A length word of 0 marks an unwritten slot. Recovery derives the count of
/// complete slots from the file size (one fstat), then walks the 4-byte
/// length words only — O(n) header reads, no payload I/O — and finally
/// CRC-checks just the last recovered slot: a crash can tear at most the
/// final append, and a torn final slot was never acknowledged, so it is
/// dropped (the next append overwrites it).
///
/// Truncation (`Truncate`) reclaims the prefix physically: the low-water
/// mark is persisted to a tiny CRC'd sidecar (`<path>.lwm`) *before* the
/// discarded slots are hole-punched (Linux `fallocate`), so a crash between
/// the two steps loses space, never data — recovery trusts the sidecar and
/// starts its tail walk at the mark. The sidecar also carries a format
/// word, which must be 1 (the CRC'd slot layout); a sidecar with format 0,
/// written for a pre-CRC log, fails `Open` with `NotSupported`. Positions
/// below the mark read as `Truncated`, never garbage.
///
/// Single-process writer; all servers in the process share one instance
/// (matching the in-process cluster model). `Sync` controls whether each
/// append is fdatasync'ed (off by default for benchmarks; the paper treats
/// durability latency via the CORFU model, Fig. 9).
class FileLog : public SharedLog {
 public:
  struct Options {
    size_t block_size = 8192;
    /// fdatasync every append (durability over throughput).
    bool sync_each_append = false;
  };

  /// High bit of the slot length word: set on every written slot.
  static constexpr uint32_t kCrcFlag = 0x80000000u;

  /// Opens or creates the log at `path`, recovering the tail.
  static Result<std::unique_ptr<FileLog>> Open(const std::string& path,
                                               Options options);
  ~FileLog() override;

  FileLog(const FileLog&) = delete;
  FileLog& operator=(const FileLog&) = delete;

  Result<uint64_t> Append(std::string block) EXCLUDES(mu_) override;
  Result<std::string> Read(uint64_t position) EXCLUDES(mu_) override;
  uint64_t Tail() const EXCLUDES(mu_) override;
  size_t block_size() const override { return options_.block_size; }
  void RecordRetry() EXCLUDES(mu_) override;
  Status Truncate(uint64_t low_water_position) EXCLUDES(mu_) override;
  uint64_t LowWaterMark() const EXCLUDES(mu_) override;

  LogStats stats() const EXCLUDES(mu_) override;

  /// Sidecar file magic: "LWM" + format version 1.
  static constexpr uint32_t kLwmMagic = 0x4C574D31u;

 private:
  FileLog(std::string path, std::FILE* file, Options options, uint64_t tail,
          uint64_t low_water);

  /// Writes `<path>.lwm` (magic, format word, mark, CRC) via tmp+rename.
  Status PersistLowWaterLocked(uint64_t low_water) REQUIRES(mu_);

  size_t SlotSize() const;

  const std::string path_;
  const Options options_;
  mutable Mutex mu_;
  std::FILE* file_ GUARDED_BY(mu_);
  uint64_t tail_ GUARDED_BY(mu_);  // Next position to assign (1-based).
  uint64_t low_water_ GUARDED_BY(mu_);  // First readable position.
  LogStats stats_ GUARDED_BY(mu_);
  /// "log.file.*" in the global MetricsRegistry (declared last: the
  /// provider reads stats() and must unregister first).
  ProviderHandle metrics_;
};

}  // namespace hyder

#endif  // HYDER2_LOG_FILE_LOG_H_
