#include "obs/flight_recorder.h"

#include <algorithm>
#include <thread>

#include "common/check.h"

namespace msq::obs {
namespace {

// Slot::committed while a writer fills the slot.
constexpr std::uint64_t kWriting = ~std::uint64_t{0};

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity), slots_(new Slot[capacity]) {
  MSQ_CHECK(capacity >= 1);
}

std::uint64_t FlightRecorder::Record(const FlightRecord& record) {
  const std::uint64_t sequence =
      next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(sequence - 1) % capacity_];
  // Claim the slot first, so a concurrent Snapshot never pairs the old
  // sequence with a half-written payload. A writer that lapped the ring
  // onto a slot still being written waits for it: two payloads written at
  // once would interleave, and whichever committed first would publish the
  // mix.
  std::uint64_t current = slot.committed.load(std::memory_order_relaxed);
  do {
    while (current == kWriting) {
      std::this_thread::yield();
      current = slot.committed.load(std::memory_order_relaxed);
    }
  } while (!slot.committed.compare_exchange_weak(current, kWriting,
                                                 std::memory_order_relaxed));
  // Orders the claim before the payload stores for a reader that sees any
  // of them (paired with the fence in Snapshot).
  std::atomic_thread_fence(std::memory_order_release);
  slot.spec_digest.store(record.spec_digest, std::memory_order_relaxed);
  slot.trace_id_hi.store(record.trace_id_hi, std::memory_order_relaxed);
  slot.trace_id_lo.store(record.trace_id_lo, std::memory_order_relaxed);
  slot.algorithm.store(record.algorithm, std::memory_order_relaxed);
  slot.status_code.store(record.status_code, std::memory_order_relaxed);
  slot.truncation.store(record.truncation, std::memory_order_relaxed);
  slot.source_count.store(record.source_count, std::memory_order_relaxed);
  slot.skyline_size.store(record.skyline_size, std::memory_order_relaxed);
  slot.wall_seconds.store(record.wall_seconds, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    slot.counters[i].store(record.counters.*kCounterRows[i].member,
                           std::memory_order_relaxed);
  }
  slot.committed.store(sequence, std::memory_order_release);
  return sequence;
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> records;
  records.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const std::uint64_t sequence =
        slot.committed.load(std::memory_order_acquire);
    if (sequence == 0 || sequence == kWriting) continue;  // empty or in flight
    FlightRecord record;
    record.sequence = sequence;
    record.spec_digest = slot.spec_digest.load(std::memory_order_relaxed);
    record.trace_id_hi = slot.trace_id_hi.load(std::memory_order_relaxed);
    record.trace_id_lo = slot.trace_id_lo.load(std::memory_order_relaxed);
    record.algorithm = slot.algorithm.load(std::memory_order_relaxed);
    record.status_code = slot.status_code.load(std::memory_order_relaxed);
    record.truncation = slot.truncation.load(std::memory_order_relaxed);
    record.source_count = slot.source_count.load(std::memory_order_relaxed);
    record.skyline_size = slot.skyline_size.load(std::memory_order_relaxed);
    record.wall_seconds = slot.wall_seconds.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      record.counters.*kCounterRows[i].member =
          slot.counters[i].load(std::memory_order_relaxed);
    }
    // A writer that claimed this slot mid-copy replaced the sequence; drop
    // the (possibly torn) copy.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.committed.load(std::memory_order_relaxed) != sequence) continue;
    records.push_back(record);
  }
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.sequence < b.sequence;
            });
  return records;
}

}  // namespace msq::obs
