// RecentRing<T>: the one bounded retention buffer behind every telemetry
// store that keeps "the last N" of something — the flight recorder's
// completion records, the retained traces of /tracez, the wide events of
// /requestz, and the explain plans of /explainz.
//
// A fixed capacity of slots guarded by one mutex. Push stores a record
// (overwriting the oldest once full) and returns its 1-based sequence —
// the push count at that moment, so sequences are dense and follow ring
// order. Snapshot copies the retained records oldest first together with
// the push and eviction totals, all under the same lock, so a body built
// from one Snapshot never disagrees with itself:
//
//   records.size() == total - evicted, and the i-th record (0-based) was
//   pushed with sequence evicted + i + 1.
//
// Writers are at most one per completed query or served request, and the
// critical section is one move-assignment, so the lock stays uncontended
// at the query rates this system serves.
#ifndef MSQ_OBS_RECENT_RING_H_
#define MSQ_OBS_RECENT_RING_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace msq::obs {

template <typename T>
class RecentRing {
 public:
  // One consistent view of the ring.
  struct Window {
    std::vector<T> records;     // oldest first
    std::uint64_t total = 0;    // records ever pushed (the last sequence)
    std::uint64_t evicted = 0;  // records pushed out by the capacity bound
  };

  // A zero capacity is treated as one.
  explicit RecentRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  RecentRing(const RecentRing&) = delete;
  RecentRing& operator=(const RecentRing&) = delete;

  std::uint64_t Push(T record) {
    std::lock_guard<std::mutex> lock(mu_);
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(record));
    } else {
      slots_[SlotOf(total_)] = std::move(record);
    }
    return ++total_;
  }

  Window Snapshot() const {
    Window window;
    std::lock_guard<std::mutex> lock(mu_);
    window.total = total_;
    window.evicted = total_ - slots_.size();
    window.records.reserve(slots_.size());
    for (std::uint64_t s = window.evicted; s < total_; ++s) {
      window.records.push_back(slots_[SlotOf(s)]);
    }
    return window;
  }

  // Calls `pred` on the retained records newest first, under the lock,
  // until it returns true; returns whether it did.
  template <typename Pred>
  bool ScanNewestFirst(Pred pred) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint64_t s = total_; s > total_ - slots_.size(); --s) {
      if (pred(slots_[SlotOf(s - 1)])) return true;
    }
    return false;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  // The slot of the record pushed with sequence `index + 1`.
  std::size_t SlotOf(std::uint64_t index) const {
    return static_cast<std::size_t>(index % capacity_);
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<T> slots_;  // grows to capacity_, then wraps
  std::uint64_t total_ = 0;
};

}  // namespace msq::obs

#endif  // MSQ_OBS_RECENT_RING_H_
