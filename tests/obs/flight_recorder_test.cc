// obs::FlightRecorder: sequence assignment and completion order, ring
// wrap-around retention, and the 8-writer hammer (suite name matches the
// tools/check.sh tsan -R filter): unique sequences, no torn payloads, and
// per-thread payload conservation under concurrent wrap.
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"

namespace msq::obs {
namespace {

FlightRecord MakeRecord(std::uint64_t tag) {
  FlightRecord record;
  record.spec_digest = tag * 0x9e3779b97f4a7c15ull;
  record.algorithm = static_cast<std::uint32_t>(tag % 3);
  record.skyline_size = tag;
  record.wall_seconds = static_cast<double>(tag) * 1e-3;
  record.counters.network_hits = tag;
  record.counters.network_misses = tag + 1;
  record.counters.settled_nodes = tag * 7;
  record.counters.dominance_tests = tag * 11;
  return record;
}

TEST(FlightRecorderTest, AssignsSequentialSequences) {
  FlightRecorder recorder(/*capacity=*/8);
  EXPECT_EQ(recorder.Record(MakeRecord(1)), 1u);
  EXPECT_EQ(recorder.Record(MakeRecord(2)), 2u);
  EXPECT_EQ(recorder.Record(MakeRecord(3)), 3u);
  EXPECT_EQ(recorder.Snapshot().total, 3u);

  const std::vector<FlightRecord> records = recorder.Snapshot().records;
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, i + 1);
    EXPECT_EQ(records[i].skyline_size, i + 1);
    EXPECT_EQ(records[i].spec_digest, (i + 1) * 0x9e3779b97f4a7c15ull);
  }
}

TEST(FlightRecorderTest, WrapKeepsMostRecentCapacityRecords) {
  FlightRecorder recorder(/*capacity=*/4);
  for (std::uint64_t tag = 1; tag <= 10; ++tag) {
    recorder.Record(MakeRecord(tag));
  }
  EXPECT_EQ(recorder.Snapshot().total, 10u);

  const std::vector<FlightRecord> records = recorder.Snapshot().records;
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first, and exactly the last `capacity` completions survive.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, 7 + i);
    EXPECT_EQ(records[i].skyline_size, 7 + i);
    EXPECT_EQ(records[i].counters.network_misses, 7 + i + 1);
  }
}

TEST(FlightRecorderTest, EmptySnapshotIsEmpty) {
  FlightRecorder recorder;
  EXPECT_TRUE(recorder.Snapshot().records.empty());
  EXPECT_EQ(recorder.Snapshot().total, 0u);
  EXPECT_EQ(recorder.capacity(), FlightRecorder::kDefaultCapacity);
}

// 8 writers, ring deliberately smaller than the write volume so slots wrap
// constantly, plus a reader snapshotting mid-flight. Runs under TSan via
// tools/check.sh (suite name matches its -R "Hammer" filter).
TEST(FlightRecorderHammerTest, ConcurrentWritersNoLostOrTornRecords) {
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 5000;
  FlightRecorder recorder(/*capacity=*/64);

  std::atomic<bool> start{false};
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&recorder, &start, w] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        // Payload encodes (writer, i) redundantly across fields so a torn
        // record — fields from two different writes — is detectable.
        FlightRecord record;
        const std::uint64_t tag =
            static_cast<std::uint64_t>(w) * kPerWriter + i;
        record.spec_digest = tag;
        record.skyline_size = tag;
        record.counters.settled_nodes = tag * 3;
        record.counters.dominance_tests = tag * 5;
        recorder.Record(record);
      }
    });
  }
  // Concurrent reader: every retained record must be internally consistent.
  threads.emplace_back([&recorder, &start, &writers_done] {
    while (!start.load(std::memory_order_acquire)) {
    }
    while (!writers_done.load(std::memory_order_acquire)) {
      for (const FlightRecord& r : recorder.Snapshot().records) {
        ASSERT_EQ(r.skyline_size, r.spec_digest);
        ASSERT_EQ(r.counters.settled_nodes, r.spec_digest * 3);
        ASSERT_EQ(r.counters.dominance_tests, r.spec_digest * 5);
      }
    }
  });
  start.store(true, std::memory_order_release);
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  threads.back().join();

  // No lost tickets: every write got a unique sequence.
  EXPECT_EQ(recorder.Snapshot().total, kWriters * kPerWriter);

  const std::vector<FlightRecord> records = recorder.Snapshot().records;
  ASSERT_EQ(records.size(), recorder.capacity());
  std::map<std::uint64_t, int> sequences;
  for (const FlightRecord& r : records) {
    // Unique sequences, payload consistent.
    EXPECT_EQ(++sequences[r.sequence], 1) << "duplicated seq " << r.sequence;
    EXPECT_EQ(r.skyline_size, r.spec_digest);
    EXPECT_EQ(r.counters.settled_nodes, r.spec_digest * 3);
    EXPECT_EQ(r.counters.dominance_tests, r.spec_digest * 5);
  }
  // Oldest first, and exactly the last `capacity` writes survive.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence,
              kWriters * kPerWriter - recorder.capacity() + 1 + i);
  }
}

}  // namespace
}  // namespace msq::obs
