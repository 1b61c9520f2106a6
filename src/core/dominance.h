// Dominance tests and in-memory skyline computation over distance vectors.
//
// All optimization is minimization: vector `a` dominates `b` when a <= b in
// every dimension and a < b in at least one. Vectors mix network distances
// to the query points with optional static attributes (paper Section 4.3:
// non-spatial attributes "can be treated as normal attributes which have
// pre-computed 'network distances'").
//
// Every scan of a skyline set for a dominator goes through one kernel,
// FirstDominator over a VectorRows store (DESIGN.md §19).
#ifndef MSQ_CORE_DOMINANCE_H_
#define MSQ_CORE_DOMINANCE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"

namespace msq {

// Attribute/distance vector of one object.
using DistVector = std::vector<Dist>;

// Row-major store of equal-length vectors: one contiguous buffer, so a scan
// walks memory linearly and appending a vector allocates only on growth.
//
// A store that is searched also keeps, per dimension, its rows sorted by
// their value in that dimension (DESIGN.md §19). The columns are extended
// lazily, in one merge per dimension, by the first Column call after rows
// were appended, so a store that is never searched pays nothing for them.
// That makes even the const Column (and FirstDominator / CountDominators)
// mutate the store: a VectorRows must not be used by two threads at once.
class VectorRows {
 public:
  // One entry of a sorted column: row `row` holds `value` in that
  // dimension.
  struct ColumnEntry {
    Dist value;
    std::uint32_t row;
  };

  explicit VectorRows(std::size_t dims) : dims_(dims) {}

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Dist* data() const { return values_.data(); }
  std::span<const Dist> row(std::size_t i) const {
    return {values_.data() + i * dims_, dims_};
  }

  // Appends a copy of `v`, which must have dims() components.
  void Append(std::span<const Dist> v);
  // Overwrites row `i` with the last row and drops the last. Drops the
  // sorted columns (the next Column call rebuilds them).
  void SwapRemove(std::size_t i);

  // Every row, ascending by its value in dimension `k` (ties by row
  // index). Valid until the next non-const call or the next Column call
  // after an Append. Components must not be NaN.
  std::span<const ColumnEntry> Column(std::size_t k) const;
  // The prefix of Column(k) with value <= limit.
  std::span<const ColumnEntry> ColumnAtMost(std::size_t k, Dist limit) const;

 private:
  // Brings the columns up to size_ rows.
  void ExtendColumns() const;

  std::size_t dims_;
  std::size_t size_ = 0;
  std::vector<Dist> values_;
  // Rows [0, indexed_) are in columns_; columns_ is empty or has dims_
  // entries.
  mutable std::vector<std::vector<ColumnEntry>> columns_;
  mutable std::size_t indexed_ = 0;
};

// Whether `a` dominates `b` (strictly better somewhere, nowhere worse).
// Both vectors must have the same size. Counts one dominance test.
bool Dominates(const DistVector& a, const DistVector& b);

// Whether `a` is component-wise <= `b`.
bool DominatesOrEqual(const DistVector& a, const DistVector& b);

// Safety margin for dominance tests that compare values computed through
// different floating-point paths (e.g. a Euclidean lower bound — a sqrt —
// against a network distance — a sum of offsets): two mathematically equal
// values can differ by ulps, and a phantom "strictly better" dimension
// must not prune an exact tie. Networks are normalized into the unit
// square, so an absolute margin dwarfing accumulated rounding error while
// staying far below any genuine distance difference is appropriate.
inline constexpr double kFpTieMargin = 1e-9;

inline constexpr std::size_t kNoSkip = std::numeric_limits<std::size_t>::max();

// A row of `rows` that dominates `b`, or rows.size() if none does. A row
// dominates when it is <= b everywhere and < b[i] - margin somewhere:
// margin 0 is exact Dominates, kFpTieMargin is for an optimistic `b`
// computed through a different FP path than the rows (R-tree bounds).
// Row `skip` is left out (tie-safety passes exclude the entry itself).
//
// Only rows that are <= b in the dimension where fewest are get tested
// (VectorRows::Column): a dominator is <= b in every dimension, so the
// search is exact. Which dominator it returns is unspecified.
//
// Accounting (DESIGN.md §17): one dominance test per row tested, and every
// other row (`skip` aside) counted as avoided; both are added once per
// scan to the global registry and the calling thread's obs::ThreadCounters
// block.
std::size_t FirstDominator(const VectorRows& rows, std::span<const Dist> b,
                           double margin, std::size_t skip = kNoSkip);

// Number of rows dominating `b` (same test and same candidate rows as
// FirstDominator), stopping at `cap`. Counts one dominance test per row
// tested.
std::size_t CountDominators(const VectorRows& rows, std::span<const Dist> b,
                            double margin, std::size_t cap);

// Whether every component is finite (the library's skyline semantics
// exclude objects unreachable from any query point).
bool AllFinite(const DistVector& v);

// Component range of one vector. If a dominates b then min(a) <= min(b)
// and max(a) <= max(b), so SkylineIndices refutes most window comparisons
// in O(1) from the summaries before touching the components.
struct DistSummary {
  Dist min = 0.0;
  Dist max = 0.0;
};
DistSummary Summarize(const DistVector& v);

// Pruning-power accounting (DESIGN.md §17). Each helper bumps the global
// registry counter and the calling thread's obs::ThreadCounters block, so
// per-query deltas stay exact under the concurrent executor.
//
// Partition of candidate objects: eliminated by a plb/Euclid/ALT lower
// bound alone vs. carried to exact network distances.
void CountBoundPruned(std::uint64_t n = 1);
void CountBoundExamined(std::uint64_t n = 1);
// Records one bound-tightness observation at an exact-completion site:
// the lower bound the search held for this distance vs. the exact network
// distance it resolved to. Returns the ratio as an integer percent in
// [0, 100] (100 = the bound was exact) so callers can also feed a
// per-plan histogram; bumps the sample/percent-sum counters and the
// global `bound_tightness` histogram.
unsigned RecordBoundTightness(Dist bound, Dist exact);

// Block-nested-loops skyline of `vectors`: returns the indices (into
// `vectors`) of the undominated entries, in input order. Entries with a
// non-finite component are excluded. Each window comparison counts as one
// dominance test, whether the summaries refute it or the components do;
// an early exit counts the rest of the window as avoided.
std::vector<std::size_t> SkylineIndices(const VectorRows& vectors);
std::vector<std::size_t> SkylineIndices(
    const std::vector<DistVector>& vectors);

}  // namespace msq

#endif  // MSQ_CORE_DOMINANCE_H_
