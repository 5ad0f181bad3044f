#include "log/file_log.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/crc32c.h"
#include "common/varint.h"
#include "server/checkpoint.h"
#include "server/server.h"

namespace hyder {
namespace {

class FileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("/tmp/hyder_filelog_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  FileLog::Options SmallOptions() {
    FileLog::Options o;
    o.block_size = 256;
    return o;
  }

  std::string path_;
};

TEST_F(FileLogTest, AppendAndReadBack) {
  auto log = FileLog::Open(path_, SmallOptions());
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (int i = 1; i <= 20; ++i) {
    auto pos = (*log)->Append("block-" + std::to_string(i));
    ASSERT_TRUE(pos.ok());
    EXPECT_EQ(*pos, uint64_t(i));
  }
  for (int i = 1; i <= 20; ++i) {
    auto block = (*log)->Read(i);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(*block, "block-" + std::to_string(i));
  }
  EXPECT_TRUE((*log)->Read(21).status().IsNotFound());
}

TEST_F(FileLogTest, PersistsAcrossReopen) {
  {
    auto log = FileLog::Open(path_, SmallOptions());
    ASSERT_TRUE(log.ok());
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE((*log)->Append("persisted-" + std::to_string(i)).ok());
    }
  }
  auto reopened = FileLog::Open(path_, SmallOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Tail(), 11u);
  auto block = (*reopened)->Read(7);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(*block, "persisted-7");
  // Appends continue at the recovered tail.
  auto pos = (*reopened)->Append("after-reopen");
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, 11u);
}

TEST_F(FileLogTest, TornFinalSlotTruncatedOnRecovery) {
  {
    auto log = FileLog::Open(path_, SmallOptions());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append("complete").ok());
    ASSERT_TRUE((*log)->Append("to-be-torn").ok());
  }
  // Tear the second slot: truncate mid-body.
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(truncate(path_.c_str(), long(260 + 6)), 0);
    std::fclose(f);
  }
  auto reopened = FileLog::Open(path_, SmallOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Tail(), 2u) << "torn slot must not be recovered";
  EXPECT_TRUE((*reopened)->Read(1).ok());
  EXPECT_TRUE((*reopened)->Read(2).status().IsNotFound());
}

TEST_F(FileLogTest, CorruptedSlotSurfacesDataLoss) {
  // Bit rot in a stored payload must fail the CRC and surface as DataLoss —
  // never as a successfully read (garbage) block.
  {
    auto log = FileLog::Open(path_, SmallOptions());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append("healthy-one").ok());
    ASSERT_TRUE((*log)->Append("about-to-rot").ok());
    ASSERT_TRUE((*log)->Append("healthy-two").ok());
  }
  {
    // Flip one payload byte in slot 2 (slot = 256 + 8 header bytes).
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 264 + 8 + 3, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 264 + 8 + 3, SEEK_SET), 0);
    ASSERT_NE(std::fputc(c ^ 0x40, f), EOF);
    std::fclose(f);
  }
  auto reopened = FileLog::Open(path_, SmallOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Tail(), 4u)
      << "interior corruption is detected on read, not during tail recovery";
  EXPECT_TRUE((*reopened)->Read(1).ok());
  auto rotten = (*reopened)->Read(2);
  EXPECT_TRUE(rotten.status().IsDataLoss()) << rotten.status().ToString();
  EXPECT_TRUE((*reopened)->Read(3).ok());
  EXPECT_GE((*reopened)->stats().errors, 1u);
}

TEST_F(FileLogTest, PreCrcLayoutIsRejected) {
  // A file written by the retired pre-CRC layout ([u32 len][payload], no
  // flag bit) must fail to open with NotSupported, not open as an empty log
  // whose first append would overwrite it. One slot of 256 + 4 bytes is
  // shorter than one CRC'd slot, so no complete slot of the current layout
  // exists and only the first length word can tell.
  std::string file;
  PutFixed32(&file, 5);
  file.append("old-a");
  file.resize(256 + 4, '\0');
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
  }
  auto log = FileLog::Open(path_, SmallOptions());
  EXPECT_TRUE(log.status().IsNotSupported()) << log.status().ToString();
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string after(file.size() + 1, '\0');
  after.resize(std::fread(after.data(), 1, after.size(), f));
  std::fclose(f);
  EXPECT_EQ(after, file) << "a rejected log must be left untouched";
}

TEST_F(FileLogTest, PreCrcSidecarIsRejected) {
  // The low-water sidecar's format word is 1 for the CRC'd layout; 0 named
  // the pre-CRC one and fails to open with NotSupported.
  {
    auto log = FileLog::Open(path_, SmallOptions());
    ASSERT_TRUE(log.ok());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE((*log)->Append("block-" + std::to_string(i)).ok());
    }
  }
  const std::string sidecar = path_ + ".lwm";
  std::string buf;
  PutFixed32(&buf, FileLog::kLwmMagic);
  PutFixed32(&buf, 0u);  // Format word of a pre-CRC log.
  PutFixed32(&buf, 2u);  // Low-water mark 2.
  PutFixed32(&buf, 0u);
  PutFixed32(&buf, Crc32c(buf.data(), 16));
  {
    std::FILE* f = std::fopen(sidecar.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
  }
  auto log = FileLog::Open(path_, SmallOptions());
  EXPECT_TRUE(log.status().IsNotSupported()) << log.status().ToString();
  std::remove(sidecar.c_str());
}

TEST_F(FileLogTest, RejectsOversizedAndEmptyBlocks) {
  auto log = FileLog::Open(path_, SmallOptions());
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(
      (*log)->Append(std::string(257, 'x')).status().IsInvalidArgument());
  EXPECT_TRUE((*log)->Append("").status().IsInvalidArgument());
}

TEST_F(FileLogTest, DatabaseSurvivesRestart) {
  // End-to-end durability: run transactions over a file log, "crash"
  // (drop everything), reopen and replay the log from scratch — the
  // database state must be fully recovered.
  FileLog::Options options;
  options.block_size = 2048;
  {
    auto log = FileLog::Open(path_, options);
    ASSERT_TRUE(log.ok());
    HyderServer server(log->get(), ServerOptions{});
    for (Key k = 0; k < 50; ++k) {
      Transaction t = server.Begin();
      ASSERT_TRUE(t.Put(k, "durable-" + std::to_string(k)).ok());
      auto r = server.Commit(std::move(t));
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(*r);
    }
    Transaction del = server.Begin();
    ASSERT_TRUE(del.Delete(25).ok());
    ASSERT_TRUE(server.Commit(std::move(del)).ok());
  }  // Everything in memory is gone.

  auto reopened = FileLog::Open(path_, options);
  ASSERT_TRUE(reopened.ok());
  HyderServer recovered(reopened->get(), ServerOptions{});
  ASSERT_TRUE(recovered.Poll().ok());  // Replay the whole log.
  Transaction check = recovered.Begin();
  for (Key k = 0; k < 50; ++k) {
    auto v = check.Get(k);
    ASSERT_TRUE(v.ok());
    if (k == 25) {
      EXPECT_FALSE(v->has_value()) << "the delete must replay too";
    } else {
      ASSERT_TRUE(v->has_value()) << "key " << k;
      EXPECT_EQ(**v, "durable-" + std::to_string(k));
    }
  }
}

TEST_F(FileLogTest, CheckpointAcceleratedRestart) {
  // Recovery via checkpoint: a restarted server bootstraps from the
  // checkpoint blocks in the file and replays only the suffix.
  FileLog::Options options;
  options.block_size = 2048;
  {
    auto log = FileLog::Open(path_, options);
    ASSERT_TRUE(log.ok());
    HyderServer server(log->get(), ServerOptions{});
    for (Key k = 0; k < 30; ++k) {
      Transaction t = server.Begin();
      ASSERT_TRUE(t.Put(k, "v" + std::to_string(k)).ok());
      ASSERT_TRUE(server.Commit(std::move(t)).ok());
    }
    ASSERT_TRUE(WriteCheckpoint(server).ok());
    // Post-checkpoint suffix.
    Transaction t = server.Begin();
    ASSERT_TRUE(t.Put(99, "suffix").ok());
    ASSERT_TRUE(server.Commit(std::move(t)).ok());
  }

  auto reopened = FileLog::Open(path_, options);
  ASSERT_TRUE(reopened.ok());
  auto info = FindLatestCheckpoint(**reopened);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->has_value());
  auto server = BootstrapFromCheckpoint(reopened->get(), **info,
                                        ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Poll().ok());  // Replay only the suffix.
  Transaction check = (*server)->Begin();
  auto v0 = check.Get(0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(**v0, "v0");
  auto vs = check.Get(99);
  ASSERT_TRUE(vs.ok());
  EXPECT_EQ(**vs, "suffix");
}

}  // namespace
}  // namespace hyder
