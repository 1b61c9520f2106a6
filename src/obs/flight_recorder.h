// Always-on per-query flight recorder: a bounded ring (obs/recent_ring.h)
// of completion records, written by every QueryExecutor worker on every
// query it finishes. The last `capacity` queries are always
// reconstructible after the fact — including the ones nobody thought to
// trace. A record's sequence is its 1-based completion order: the ring's
// push count, so sequences are dense and a snapshot lists them ascending.
#ifndef MSQ_OBS_FLIGHT_RECORDER_H_
#define MSQ_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/recent_ring.h"

namespace msq::obs {

// One query completion. `counters` is the worker thread's ThreadCounters
// delta over the query window: every row of the counter table, the same
// thread-exact numbers QueryStats::counters reports for a pool attached to
// its query-stack role.
struct FlightRecord {
  std::uint64_t sequence = 0;     // 1-based completion order
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

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  // Appends one record, overwriting the oldest once full, and returns its
  // sequence. Safe from any thread.
  std::uint64_t Record(const FlightRecord& record) {
    return ring_.Push(record);
  }

  // The retained records oldest first, each stamped with its sequence;
  // `total` is the number of records ever written (the highest sequence).
  RecentRing<FlightRecord>::Window Snapshot() const {
    RecentRing<FlightRecord>::Window window = ring_.Snapshot();
    std::uint64_t sequence = window.evicted;
    for (FlightRecord& record : window.records) record.sequence = ++sequence;
    return window;
  }

  std::size_t capacity() const { return ring_.capacity(); }

 private:
  RecentRing<FlightRecord> ring_;
};

}  // namespace msq::obs

#endif  // MSQ_OBS_FLIGHT_RECORDER_H_
