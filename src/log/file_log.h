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
/// Slot layout (v2, current): [u32 len|kCrcFlag][u32 crc32c(payload)][payload]
/// [zero padding]. The high bit of the length word marks the v2 format; the
/// CRC covers the payload, so a slot whose stored bytes decayed surfaces as
/// `DataLoss` on read instead of feeding garbage to meld. Files written by
/// the pre-CRC layout ([u32 len][payload], no flag bit) are detected on open
/// and keep working — reads skip the CRC check and appends continue the
/// legacy layout so the file stays self-consistent.
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
/// starts its tail walk at the mark. The sidecar also records the slot
/// format, because once slot 0 is punched the length-word sniff would read
/// zeros. Positions below the mark read as `Truncated`, never garbage.
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

  /// High bit of the slot length word: set for the CRC'd v2 slot layout.
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

  /// False when the file predates the CRC'd slot layout.
  bool crc_protected() const { return format_v2_; }

  /// Sidecar file magic: "LWM" + format version 1.
  static constexpr uint32_t kLwmMagic = 0x4C574D31u;

 private:
  FileLog(std::string path, std::FILE* file, Options options, uint64_t tail,
          bool format_v2, uint64_t low_water);

  /// Writes `<path>.lwm` (magic, format flag, mark, CRC) via tmp+rename.
  Status PersistLowWaterLocked(uint64_t low_water) REQUIRES(mu_);

  /// v2 slots carry [len][crc]; legacy slots only [len].
  size_t HeaderSize() const { return format_v2_ ? 8 : 4; }
  size_t SlotSize() const { return options_.block_size + HeaderSize(); }

  const std::string path_;
  const Options options_;
  const bool format_v2_;
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
