// FaultInjectingDiskManager semantics and the BufferManager's reaction to
// injected storage faults: retries for transient errors, clean propagation
// for permanent ones, and no dropped dirty page on a failed writeback.
#include "storage/fault_injection.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/disk_manager.h"

namespace msq {
namespace {

Page MakePattern(std::uint8_t value) {
  Page page;
  for (auto& b : page.data) b = static_cast<std::byte>(value);
  return page;
}

TEST(FaultInjectionTest, DisarmedDefaultConfigIsTransparent) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();
  ASSERT_TRUE(disk.Write(a, MakePattern(0x3c)).ok());
  Page out;
  ASSERT_TRUE(disk.Read(a, &out).ok());
  EXPECT_EQ(out.data[9], static_cast<std::byte>(0x3c));
  EXPECT_EQ(disk.fault_stats().total(), 0u);
}

TEST(FaultInjectionTest, ScriptedReadFaultFiresOnceEvenDisarmed) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();
  ASSERT_TRUE(disk.Write(a, MakePattern(0x11)).ok());

  disk.FailNextReads(1, StatusCode::kIoError);
  Page out;
  const Status first = disk.Read(a, &out);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_TRUE(disk.Read(a, &out).ok());  // queue drained
  EXPECT_EQ(disk.fault_stats().injected_scripted_faults, 1u);
}

TEST(FaultInjectionTest, PersistentRateKillsAPageForGood) {
  InMemoryDiskManager inner;
  FaultInjectionConfig config;
  config.persistent_read_rate = 1.0;
  FaultInjectingDiskManager disk(&inner, config);
  const PageId a = disk.Allocate().value();

  disk.Arm();
  Page out;
  for (int i = 0; i < 3; ++i) {
    const Status status = disk.Read(a, &out);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kIoError);
  }
  EXPECT_EQ(disk.fault_stats().injected_persistent_reads, 3u);
}

TEST(FaultInjectionTest, SameSeedSameSchedule) {
  FaultInjectionConfig config;
  config.seed = 77;
  config.transient_read_rate = 0.3;
  std::string first_round;
  for (int round = 0; round < 2; ++round) {
    InMemoryDiskManager inner;
    FaultInjectingDiskManager disk(&inner, config);
    const PageId a = disk.Allocate().value();
    disk.Arm();
    std::string outcomes;
    Page out;
    for (int i = 0; i < 64; ++i) {
      outcomes += disk.Read(a, &out).ok() ? '.' : 'x';
    }
    if (round == 0) {
      first_round = outcomes;
      EXPECT_NE(outcomes.find('x'), std::string::npos);
    } else {
      EXPECT_EQ(outcomes, first_round);
    }
  }
}

// ------------------------------------------- BufferManager under faults

TEST(BufferFaultTest, TransientReadIsRetriedToSuccess) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();
  ASSERT_TRUE(disk.Write(a, MakePattern(0x7e)).ok());

  BufferManager buffer(&disk, 4);
  disk.FailNextReads(2, StatusCode::kUnavailable);  // default policy: 3 tries
  auto fetched = buffer.Fetch(a);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->data[0], static_cast<std::byte>(0x7e));
  (*fetched).Release();
  EXPECT_EQ(buffer.stats().read_retries, 2u);
  EXPECT_EQ(buffer.stats().failed_reads, 0u);
}

TEST(BufferFaultTest, TransientReadBeyondPolicyFailsCleanly) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();

  BufferManager buffer(&disk, 4);
  disk.FailNextReads(3, StatusCode::kUnavailable);
  auto fetched = buffer.Fetch(a);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(buffer.stats().failed_reads, 1u);
  // The failed miss must not leave a stale frame behind.
  EXPECT_EQ(buffer.resident_pages(), 0u);
  EXPECT_TRUE(buffer.Fetch(a).ok());  // next attempt is a clean miss
}

TEST(BufferFaultTest, NonzeroBackoffActuallySleepsBetweenRetries) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();

  RetryPolicy retry;
  retry.backoff_micros = 2000;  // retries sleep 2ms, then 4ms
  BufferManager buffer(&disk, 4, retry);
  disk.FailNextReads(2, StatusCode::kUnavailable);

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(buffer.Fetch(a).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(buffer.stats().read_retries, 2u);
  // Two exponential backoff sleeps total >= 6ms; allow scheduler slop but
  // catch a backoff that never sleeps at all.
  EXPECT_GE(elapsed.count(), 5000);
}

TEST(BufferFaultTest, CorruptionIsNotRetried) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();

  BufferManager buffer(&disk, 4);
  disk.FailNextReads(1, StatusCode::kCorruption);
  auto fetched = buffer.Fetch(a);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(buffer.stats().read_retries, 0u);
}

TEST(BufferFaultTest, FailedWritebackKeepsDirtyPageResident) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();
  const PageId b = disk.Allocate().value();

  BufferManager buffer(&disk, 1);
  {
    PageGuard page = buffer.Fetch(a, /*mark_dirty=*/true).value();
    page->data[0] = static_cast<std::byte>(0x42);
  }  // unpin so fetching `b` must try to evict `a`

  // Eviction of `a` needs a writeback; make it fail (non-transient, so the
  // retry policy does not mask it).
  disk.FailNextWrites(1, StatusCode::kIoError);
  auto fetched = buffer.Fetch(b);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kIoError);
  EXPECT_EQ(buffer.stats().failed_writebacks, 1u);

  // Regression: the dirty frame must survive the failed eviction...
  EXPECT_EQ(buffer.resident_pages(), 1u);
  PageGuard again = buffer.Fetch(a).value();
  EXPECT_EQ(again->data[0], static_cast<std::byte>(0x42));
  again.Release();
  // ...and reach the disk once writes heal.
  ASSERT_TRUE(buffer.FlushAll().ok());
  Page out;
  ASSERT_TRUE(inner.Read(a, &out).ok());
  EXPECT_EQ(out.data[0], static_cast<std::byte>(0x42));
}

TEST(BufferFaultTest, ClearFailureDropsNothing) {
  InMemoryDiskManager inner;
  FaultInjectingDiskManager disk(&inner, FaultInjectionConfig{});
  const PageId a = disk.Allocate().value();

  BufferManager buffer(&disk, 4);
  {
    PageGuard page = buffer.Fetch(a, /*mark_dirty=*/true).value();
    page->data[5] = static_cast<std::byte>(0x66);
  }  // unpin so Clear may drop the frame once the writeback succeeds

  disk.FailNextWrites(1, StatusCode::kIoError);
  ASSERT_FALSE(buffer.Clear().ok());
  EXPECT_EQ(buffer.resident_pages(), 1u);  // nothing dropped

  ASSERT_TRUE(buffer.Clear().ok());  // writes healed
  EXPECT_EQ(buffer.resident_pages(), 0u);
  Page out;
  ASSERT_TRUE(inner.Read(a, &out).ok());
  EXPECT_EQ(out.data[5], static_cast<std::byte>(0x66));
}

// ------------------------------------------------ on-disk page integrity

class PageIntegrityTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the cases as concurrent processes, and
  // each TearDown removes its file.
  std::string path_ =
      ::testing::TempDir() + "/msq_integrity_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";

  void TearDown() override { std::remove(path_.c_str()); }

  // Flips one bit at `offset` in the raw file.
  void FlipBit(long offset) {
    std::FILE* raw = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
    const int byte = std::fgetc(raw);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
    std::fputc(byte ^ 0x10, raw);
    std::fclose(raw);
  }
};

TEST_F(PageIntegrityTest, ChecksumDetectsPayloadBitFlip) {
  {
    auto disk = ValueOrThrow(FileDiskManager::Open(path_, /*truncate=*/true));
    const PageId a = disk->Allocate().value();
    ASSERT_TRUE(disk->Write(a, MakePattern(0xab)).ok());
  }
  // Page 0's payload starts at slot offset 0; flip a bit mid-payload.
  FlipBit(static_cast<long>(kPageSize / 2));
  auto disk = ValueOrThrow(FileDiskManager::Open(path_, /*truncate=*/false));
  Page out;
  const Status status = disk->Read(0, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
}

TEST_F(PageIntegrityTest, TrailerDamageIsCorruptionToo) {
  {
    auto disk = ValueOrThrow(FileDiskManager::Open(path_, /*truncate=*/true));
    const PageId a = disk->Allocate().value();
    ASSERT_TRUE(disk->Write(a, MakePattern(0xcd)).ok());
  }
  FlipBit(static_cast<long>(kPageSize));  // first trailer byte (magic)
  auto disk = ValueOrThrow(FileDiskManager::Open(path_, /*truncate=*/false));
  Page out;
  EXPECT_EQ(disk->Read(0, &out).code(), StatusCode::kCorruption);
}

TEST_F(PageIntegrityTest, IntactPagesStillVerify) {
  {
    auto disk = ValueOrThrow(FileDiskManager::Open(path_, /*truncate=*/true));
    for (int i = 0; i < 3; ++i) {
      const PageId id = disk->Allocate().value();
      ASSERT_TRUE(
          disk->Write(id, MakePattern(static_cast<std::uint8_t>(i))).ok());
    }
  }
  // Damage only page 1; its neighbors must stay readable.
  FlipBit(static_cast<long>(FileDiskManager::kSlotSize + 10));
  auto disk = ValueOrThrow(FileDiskManager::Open(path_, /*truncate=*/false));
  Page out;
  EXPECT_TRUE(disk->Read(0, &out).ok());
  EXPECT_EQ(disk->Read(1, &out).code(), StatusCode::kCorruption);
  EXPECT_TRUE(disk->Read(2, &out).ok());
  EXPECT_EQ(out.data[0], static_cast<std::byte>(2));
}

TEST_F(PageIntegrityTest, TruncatedFileRejectedOnOpen) {
  {
    auto disk = ValueOrThrow(FileDiskManager::Open(path_, /*truncate=*/true));
    const PageId a = disk->Allocate().value();
    ASSERT_TRUE(disk->Write(a, MakePattern(0xef)).ok());
  }
  // Chop the trailer off: the file is no longer slot-aligned.
  ASSERT_EQ(::truncate(path_.c_str(), static_cast<long>(kPageSize)), 0);
  auto disk = FileDiskManager::Open(path_, /*truncate=*/false);
  ASSERT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace msq
