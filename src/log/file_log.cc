#include "log/file_log.h"

#include <unistd.h>

#include <cstring>
#include <memory>

#ifdef __linux__
#include <fcntl.h>
#include <linux/falloc.h>
#endif

#include "common/crc32c.h"
#include "common/varint.h"

namespace hyder {

namespace {

/// Reads the 4-byte length word of `slot_index` (0-based). Returns false on
/// seek/read failure (EOF past the last slot).
bool ReadLengthWord(std::FILE* file, size_t slot_size, uint64_t slot_index,
                    uint32_t* raw) {
  char header[4];
  if (std::fseek(file, static_cast<long>(slot_index * slot_size),
                 SEEK_SET) != 0 ||
      std::fread(header, 1, 4, file) != 4) {
    return false;
  }
  *raw = DecodeFixed32(header);
  return true;
}

/// Slot header: [u32 len|kCrcFlag][u32 crc32c(payload)].
constexpr size_t kSlotHeaderSize = 8;

Status PreCrcLayout(const std::string& path) {
  return Status::NotSupported(
      path + " uses the pre-CRC slot layout, which is no longer readable");
}

/// Sidecar layout: [u32 magic][u32 format][u32 lwm_lo][u32 lwm_hi]
/// [u32 crc32c(first 16 bytes)] — 20 bytes, rewritten atomically via
/// tmp+rename on every truncation. The format word is always 1: the CRC'd
/// slot layout.
constexpr size_t kSidecarSize = 20;

std::string SidecarPath(const std::string& path) { return path + ".lwm"; }

void EncodeSidecar(std::string* out, uint64_t low_water) {
  PutFixed32(out, FileLog::kLwmMagic);
  PutFixed32(out, 1u);
  PutFixed32(out, static_cast<uint32_t>(low_water));
  PutFixed32(out, static_cast<uint32_t>(low_water >> 32));
  PutFixed32(out, Crc32c(out->data(), 16));
}

/// Reads `<path>.lwm` if present. Returns false (no error) when the sidecar
/// does not exist; Corruption when it exists but fails validation — a
/// half-written mark must stop recovery rather than resurrect a reclaimed
/// prefix as garbage — and NotSupported when it describes a pre-CRC log.
Result<bool> ReadSidecar(const std::string& path, uint64_t* low_water) {
  std::FILE* f = std::fopen(SidecarPath(path).c_str(), "rb");
  if (f == nullptr) return false;
  char buf[kSidecarSize];
  const size_t n = std::fread(buf, 1, kSidecarSize, f);
  std::fclose(f);
  if (n != kSidecarSize || DecodeFixed32(buf) != FileLog::kLwmMagic ||
      DecodeFixed32(buf + 16) != Crc32c(buf, 16)) {
    return Status::Corruption("invalid low-water sidecar " +
                              SidecarPath(path));
  }
  if (DecodeFixed32(buf + 4) == 0) return PreCrcLayout(path);
  *low_water = uint64_t(DecodeFixed32(buf + 8)) |
               (uint64_t(DecodeFixed32(buf + 12)) << 32);
  if (*low_water == 0) {
    return Status::Corruption("low-water sidecar holds position 0");
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<FileLog>> FileLog::Open(const std::string& path,
                                               Options options) {
  if (options.block_size < 64) {
    return Status::InvalidArgument("block size too small for a file log");
  }
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    file = std::fopen(path.c_str(), "w+b");
  }
  if (file == nullptr) {
    return Status::Internal("cannot open log file " + path);
  }
  // One stat for the recovery bound: only complete slots can hold recovered
  // blocks; a trailing partial slot is a torn (never acknowledged) final
  // append and is ignored — the next append overwrites it.
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::Internal("cannot stat log file " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(std::ftell(file));

  // A truncated log's authoritative state lives in the sidecar: once the
  // prefix is hole-punched, slot 0 reads as zeros, so the first walkable
  // slot must come from it.
  uint64_t low_water = 1;
  if (auto sc = ReadSidecar(path, &low_water); !sc.ok()) {
    std::fclose(file);
    return sc.status();
  }

  const size_t slot = options.block_size + kSlotHeaderSize;
  const uint64_t complete_slots = file_size / slot;

  // A first slot written without the flag is the retired pre-CRC layout:
  // refuse it rather than take the file for an empty log and overwrite it.
  uint32_t first = 0;
  if (ReadLengthWord(file, slot, low_water - 1, &first) && first != 0 &&
      (first & kCrcFlag) == 0) {
    std::fclose(file);
    return PreCrcLayout(path);
  }

  // Recover the tail by walking length words only — O(n) 4-byte reads, no
  // payload I/O even for multi-gigabyte logs. The walk starts at the
  // low-water mark: everything below it was truncated (punched slots read
  // as zero length words and must not terminate recovery at tail 1).
  uint64_t tail = low_water;
  while (tail <= complete_slots) {
    uint32_t raw = 0;
    if (!ReadLengthWord(file, slot, tail - 1, &raw)) break;
    if ((raw & kCrcFlag) == 0) break;  // Unwritten or foreign slot.
    const uint32_t len = raw & ~kCrcFlag;
    if (len == 0 || len > options.block_size) break;
    tail++;
  }

  // A crash can corrupt at most the final counted slot (a torn write that
  // still produced a full-size file, e.g. over pre-allocated space). Verify
  // its checksum and drop it if it fails — it was never acknowledged.
  // Earlier slots are verified lazily on read.
  if (tail > low_water) {
    char head[8];
    std::string payload;
    const uint64_t last = tail - 2;  // 0-based index of last recovered slot.
    if (std::fseek(file, static_cast<long>(last * slot), SEEK_SET) != 0 ||
        std::fread(head, 1, 8, file) != 8) {
      tail--;
    } else {
      const uint32_t len = DecodeFixed32(head) & ~kCrcFlag;
      const uint32_t stored_crc = DecodeFixed32(head + 4);
      payload.resize(len);
      if (std::fread(payload.data(), 1, len, file) != len ||
          Crc32c(payload) != stored_crc) {
        tail--;
      }
    }
  }
  return std::unique_ptr<FileLog>(
      new FileLog(path, file, options, tail, low_water));
}

FileLog::FileLog(std::string path, std::FILE* file, Options options,
                 uint64_t tail, uint64_t low_water)
    : path_(std::move(path)),
      options_(options),
      file_(file),
      tail_(tail),
      low_water_(low_water) {
  stats_.low_water = low_water_;
  metrics_ = MetricsRegistry::Global().RegisterProvider(
      "log.file", [this](const MetricsRegistry::Emit& emit) {
        EmitLogStats(stats(), emit);
      });
}

FileLog::~FileLog() {
  if (file_ != nullptr) std::fclose(file_);
}

size_t FileLog::SlotSize() const {
  return options_.block_size + kSlotHeaderSize;
}

Result<uint64_t> FileLog::Append(std::string block) {
  if (block.size() > options_.block_size) {
    return Status::InvalidArgument("block exceeds the configured block size");
  }
  if (block.empty()) {
    return Status::InvalidArgument("empty blocks are not valid log entries");
  }
  MutexLock lock(mu_);
  const uint64_t pos = tail_;
  std::string slot;
  slot.reserve(SlotSize());
  PutFixed32(&slot, static_cast<uint32_t>(block.size()) | kCrcFlag);
  PutFixed32(&slot, Crc32c(block));
  slot.append(block);
  slot.resize(SlotSize(), '\0');
  if (std::fseek(file_, long((pos - 1) * SlotSize()), SEEK_SET) != 0 ||
      std::fwrite(slot.data(), 1, slot.size(), file_) != slot.size()) {
    stats_.errors++;
    return Status::Internal("log append I/O failed");
  }
  if (std::fflush(file_) != 0) {
    stats_.errors++;
    return Status::Internal("log flush failed");
  }
  if (options_.sync_each_append) {
    if (fdatasync(fileno(file_)) != 0) {
      stats_.errors++;
      return Status::Internal("log fdatasync failed");
    }
  }
  tail_++;
  stats_.appends++;
  stats_.bytes_appended += block.size();
  return pos;
}

Result<std::string> FileLog::Read(uint64_t position) {
  MutexLock lock(mu_);
  if (position == 0 || position >= tail_) {
    return Status::NotFound("log position " + std::to_string(position) +
                            " past tail " + std::to_string(tail_));
  }
  if (position < low_water_) {
    return Status::Truncated("log position " + std::to_string(position) +
                             " below low-water mark " +
                             std::to_string(low_water_));
  }
  char header[kSlotHeaderSize];
  if (std::fseek(file_, long((position - 1) * SlotSize()), SEEK_SET) != 0 ||
      std::fread(header, 1, kSlotHeaderSize, file_) != kSlotHeaderSize) {
    stats_.errors++;
    return Status::Internal("log read I/O failed (header)");
  }
  const uint32_t raw = DecodeFixed32(header);
  if ((raw & kCrcFlag) == 0) {
    stats_.errors++;
    return Status::DataLoss("slot format bit lost at position " +
                            std::to_string(position));
  }
  const uint32_t len = raw & ~kCrcFlag;
  if (len == 0 || len > options_.block_size) {
    stats_.errors++;
    return Status::DataLoss("bad slot length at position " +
                            std::to_string(position));
  }
  std::string block(len, '\0');
  if (std::fread(block.data(), 1, len, file_) != len) {
    stats_.errors++;
    return Status::Internal("log read I/O failed (body)");
  }
  if (Crc32c(block) != DecodeFixed32(header + 4)) {
    stats_.errors++;
    return Status::DataLoss("checksum mismatch at position " +
                            std::to_string(position) +
                            ": stored bytes decayed");
  }
  stats_.reads++;
  return block;
}

uint64_t FileLog::Tail() const {
  MutexLock lock(mu_);
  return tail_;
}

void FileLog::RecordRetry() {
  MutexLock lock(mu_);
  stats_.retries++;
}

Status FileLog::PersistLowWaterLocked(uint64_t low_water) {
  std::string buf;
  EncodeSidecar(&buf, low_water);
  const std::string final_path = SidecarPath(path_);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create sidecar " + tmp_path);
  }
  const bool wrote = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size() &&
                     std::fflush(f) == 0 && fdatasync(fileno(f)) == 0;
  std::fclose(f);
  if (!wrote || std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot persist low-water sidecar " + final_path);
  }
  return Status::OK();
}

Status FileLog::Truncate(uint64_t low_water_position) {
  MutexLock lock(mu_);
  if (low_water_position <= low_water_) return Status::OK();  // Monotone.
  if (low_water_position >= tail_) {
    return Status::InvalidArgument(
        "truncation point " + std::to_string(low_water_position) +
        " at or past tail " + std::to_string(tail_) +
        ": the anchoring checkpoint must stay readable");
  }
  // Ordering matters for crash safety: persist the mark FIRST, punch holes
  // SECOND. Crash after the sidecar but before the punch wastes space, never
  // data; the reverse order would leave recovery walking zeroed slots with
  // no record that they were discarded on purpose.
  HYDER_RETURN_IF_ERROR(PersistLowWaterLocked(low_water_position));
  stats_.truncations++;
  stats_.truncated_blocks += low_water_position - low_water_;
  low_water_ = low_water_position;
  stats_.low_water = low_water_;
#ifdef __linux__
  // Physical reclaim is best-effort (the logical contract is already
  // durable): punch the whole discarded prefix each time — idempotent, and
  // KEEP_SIZE preserves the slot arithmetic for every surviving position.
  if (std::fflush(file_) == 0) {
    (void)fallocate(fileno(file_), FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                    0, static_cast<off_t>((low_water_ - 1) * SlotSize()));
  }
#endif
  return Status::OK();
}

uint64_t FileLog::LowWaterMark() const {
  MutexLock lock(mu_);
  return low_water_;
}

LogStats FileLog::stats() const {
  // Snapshot under mu_: the same mutex every counter is mutated under, so
  // the struct is internally consistent even with concurrent appends.
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace hyder
