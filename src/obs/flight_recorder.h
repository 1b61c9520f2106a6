// Always-on per-query flight recorder: a fixed-size lock-free ring of
// completion records, written by every QueryExecutor worker on every query
// it finishes. The last `capacity` queries are always reconstructible after
// the fact — including the ones nobody thought to trace.
//
// Write path: one fetch_add claims a globally unique sequence number (and
// with it a slot), a compare-exchange marks the slot's commit word as being
// written, the payload is stored word by word with relaxed atomics, and
// the commit word is released last. No locks, no allocation. Two writers
// meet on one slot only when `capacity` writes complete while one is still
// in flight; the later one then waits for the earlier to commit, because
// interleaved payload stores would publish a torn record. Size the ring
// well above the worker count (the default is 256 per executor) and that
// wait never happens.
//
// Read path (Snapshot) is best-effort consistent: a slot is skipped while
// its commit word says a write is in flight, and re-checked after the
// payload copy so a record overwritten mid-copy is dropped rather than
// returned torn.
#ifndef MSQ_OBS_FLIGHT_RECORDER_H_
#define MSQ_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace msq::obs {

// One query completion. `counters` is the worker thread's ThreadCounters
// delta over the query window: every row of the counter table, the same
// thread-exact numbers QueryStats::counters reports for a pool attached to
// its query-stack role.
struct FlightRecord {
  std::uint64_t sequence = 0;     // 1-based completion order, assigned by Record
  std::uint64_t spec_digest = 0;  // core::QuerySpecDigest of (algorithm, spec)
  // 128-bit request trace id (obs/request_context.h); zero when the query
  // was submitted without telemetry.
  std::uint64_t trace_id_hi = 0;
  std::uint64_t trace_id_lo = 0;
  std::uint32_t algorithm = 0;    // Algorithm enum value (opaque here)
  std::int32_t status_code = 0;   // StatusCode enum value; 0 == ok
  std::uint32_t truncation = 0;   // truncation StatusCode; 0 == not truncated
  std::uint32_t source_count = 0;
  std::uint64_t skyline_size = 0;
  double wall_seconds = 0.0;
  Counters counters;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one record (record.sequence is assigned here, overwriting the
  // ring's oldest entry once full). Lock-free; safe from any thread.
  std::uint64_t Record(const FlightRecord& record);

  // The currently retained records in completion order (oldest first).
  // Records mid-overwrite are skipped, never returned torn.
  std::vector<FlightRecord> Snapshot() const;

  std::size_t capacity() const { return capacity_; }
  // Total records ever written (== the highest assigned sequence).
  std::uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    // 0 = empty; all ones while a writer fills the slot; otherwise the
    // committed sequence.
    std::atomic<std::uint64_t> committed{0};
    std::atomic<std::uint64_t> spec_digest{0};
    std::atomic<std::uint64_t> trace_id_hi{0};
    std::atomic<std::uint64_t> trace_id_lo{0};
    std::atomic<std::uint32_t> algorithm{0};
    std::atomic<std::int32_t> status_code{0};
    std::atomic<std::uint32_t> truncation{0};
    std::atomic<std::uint32_t> source_count{0};
    std::atomic<std::uint64_t> skyline_size{0};
    std::atomic<double> wall_seconds{0.0};
    // FlightRecord::counters, in kCounterRows order.
    std::atomic<std::uint64_t> counters[kCounterCount] = {};
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace msq::obs

#endif  // MSQ_OBS_FLIGHT_RECORDER_H_
