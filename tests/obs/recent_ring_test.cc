// obs::RecentRing, the bounded ring behind the flight recorder, the trace
// store, the wide-event log and the plan store: dense 1-based sequences,
// wrap-around retention oldest first with consistent totals, newest-first
// scans, and a hammer (suite name matches the tools/check.sh tsan -R
// "Hammer" filter) that reads /tracez-, /requestz- and /debugz-style
// bodies while writers run and holds each body to its own totals.
#include "obs/recent_ring.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_store.h"

namespace msq::obs {
namespace {

TEST(RecentRingTest, PushReturnsDenseSequences) {
  RecentRing<int> ring(/*capacity=*/8);
  EXPECT_EQ(ring.Push(10), 1u);
  EXPECT_EQ(ring.Push(20), 2u);
  EXPECT_EQ(ring.Push(30), 3u);
  const RecentRing<int>::Window window = ring.Snapshot();
  EXPECT_EQ(window.records, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(window.total, 3u);
  EXPECT_EQ(window.evicted, 0u);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(RecentRingTest, WrapKeepsTheNewestCapacityRecordsOldestFirst) {
  RecentRing<std::string> ring(/*capacity=*/4);
  EXPECT_TRUE(ring.Snapshot().records.empty());
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(ring.Push(std::to_string(i)),
              static_cast<std::uint64_t>(i));
    // At every step the window is the newest min(i, 4) records, and the
    // i-th listed record carries sequence evicted + i + 1.
    const RecentRing<std::string>::Window window = ring.Snapshot();
    const std::size_t kept = std::min<std::size_t>(i, 4);
    ASSERT_EQ(window.records.size(), kept);
    EXPECT_EQ(window.total, static_cast<std::uint64_t>(i));
    EXPECT_EQ(window.evicted, i - kept);
    for (std::size_t j = 0; j < kept; ++j) {
      EXPECT_EQ(window.records[j], std::to_string(window.evicted + j + 1));
    }
  }
}

TEST(RecentRingTest, ZeroCapacityKeepsOneRecord) {
  RecentRing<int> ring(/*capacity=*/0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Push(1);
  ring.Push(2);
  const RecentRing<int>::Window window = ring.Snapshot();
  EXPECT_EQ(window.records, std::vector<int>{2});
  EXPECT_EQ(window.total, 2u);
  EXPECT_EQ(window.evicted, 1u);
}

TEST(RecentRingTest, ScanNewestFirstVisitsOnlyRetainedRecords) {
  RecentRing<int> ring(/*capacity=*/3);
  for (int v : {1, 2, 3, 4, 5}) ring.Push(v);
  std::vector<int> visited;
  EXPECT_FALSE(ring.ScanNewestFirst([&visited](int v) {
    visited.push_back(v);
    return false;
  }));
  EXPECT_EQ(visited, (std::vector<int>{5, 4, 3}));
  visited.clear();
  EXPECT_TRUE(ring.ScanNewestFirst([&visited](int v) {
    visited.push_back(v);
    return v == 4;
  }));
  EXPECT_EQ(visited, (std::vector<int>{5, 4}));
}

// The unsigned integer following `key` in `body` (the key must occur).
std::uint64_t NumberAfter(const std::string& body, const std::string& key) {
  const std::size_t at = body.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + key.size(), nullptr, 10);
}

std::size_t Occurrences(const std::string& body, const std::string& key) {
  std::size_t count = 0;
  for (std::size_t at = body.find(key); at != std::string::npos;
       at = body.find(key, at + key.size())) {
    ++count;
  }
  return count;
}

// Writers complete head-sampled queries through ServingTelemetry (a flight
// record and a retained trace each) and append wide events; a reader
// builds the bodies meanwhile. Each body must agree with the totals it
// prints, because list and totals come from one ring snapshot. The trace
// and event rings fill for most of the run (once full, retained - evicted
// is the capacity whenever it is read) and then wrap; the flight ring is
// small, so it wraps constantly.
TEST(RecentRingHammerTest, BodiesAgreeWithTheirOwnTotalsUnderWrites) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 1500;
  MetricsRegistry registry;
  TelemetryConfig config;
  config.registry = &registry;
  config.flight_capacity = 16;
  config.trace_capacity = 4096;
  ServingTelemetry telemetry(config);
  constexpr std::size_t kEventCapacity = 4096;
  WideEventLog events(kEventCapacity);

  std::atomic<bool> start{false};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerWriter; ++i) {
        FlightRecord record;
        record.wall_seconds = 1e-3;
        record.sequence = telemetry.RecordQuery("ce", record);
        telemetry.CompleteRequest(TraceContext::Mint(/*sampled=*/true),
                                  record, 0.0, "ce", QueryProfile{});
        WideEvent event;
        event.sequence = record.sequence;
        events.Append(std::move(event));
        // Spread the writes so the reader builds many bodies meanwhile.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      writers_left.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  std::uint64_t bodies_read = 0;
  threads.emplace_back([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    while (writers_left.load(std::memory_order_acquire) > 0) {
      // /tracez: retained_total - evicted_total == traces listed.
      const std::string tracez = TracezJson(telemetry.trace_store());
      const std::uint64_t retained = NumberAfter(tracez, "\"retained_total\":");
      const std::uint64_t evicted = NumberAfter(tracez, "\"evicted_total\":");
      ASSERT_EQ(retained - evicted, Occurrences(tracez, "\"trace_id\":\""))
          << tracez;
      ASSERT_LE(retained - evicted, config.trace_capacity);

      // /requestz: the log lists min(total, capacity) events.
      const std::string requestz = events.Json();
      const std::uint64_t appended = NumberAfter(requestz, "\"total\":");
      ASSERT_EQ(std::min<std::uint64_t>(appended, kEventCapacity),
                Occurrences(requestz, "\"trace_id\":\""))
          << requestz;

      // /debugz's flight block: total >= every sequence listed, and the
      // listed sequences are exactly the newest ones.
      const auto flight = telemetry.flight_recorder().Snapshot();
      std::uint64_t max_sequence = 0;
      for (const FlightRecord& record : flight.records) {
        max_sequence = std::max(max_sequence, record.sequence);
      }
      ASSERT_GE(flight.total, max_sequence);
      ASSERT_EQ(flight.records.size(), flight.total - flight.evicted);
      for (std::size_t i = 0; i < flight.records.size(); ++i) {
        ASSERT_EQ(flight.records[i].sequence, flight.evicted + i + 1);
      }
      ++bodies_read;
    }
  });
  start.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  constexpr std::uint64_t kTotal = kWriters * kPerWriter;
  EXPECT_GT(bodies_read, 0u);
  const auto flight = telemetry.flight_recorder().Snapshot();
  EXPECT_EQ(flight.total, kTotal);
  ASSERT_EQ(flight.records.size(), config.flight_capacity);
  EXPECT_EQ(flight.records.back().sequence, kTotal);
  const auto traces = telemetry.trace_store().Snapshot();
  EXPECT_EQ(traces.total, kTotal);
  EXPECT_EQ(traces.evicted, kTotal - config.trace_capacity);
  const std::string requestz = events.Json();
  EXPECT_EQ(NumberAfter(requestz, "\"total\":"), kTotal);
}

}  // namespace
}  // namespace msq::obs
