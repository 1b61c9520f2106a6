#include "core/dominance.h"

#include <algorithm>
#include <cmath>
#include <ranges>

#include "common/check.h"
#include "obs/metrics.h"

namespace msq {
namespace {

// Cached at load: the dominance counters are bumped once per scan by the
// innermost loops of every skyline filter.
obs::Counter* const g_dominance_tests = obs::GlobalMetrics().counter(
    obs::metric::kDominanceTests);
obs::Counter* const g_dominance_avoided = obs::GlobalMetrics().counter(
    obs::metric::kDominanceAvoided);
obs::Counter* const g_bound_pruned = obs::GlobalMetrics().counter(
    obs::metric::kBoundPruned);
obs::Counter* const g_bound_examined = obs::GlobalMetrics().counter(
    obs::metric::kBoundExamined);
obs::Counter* const g_bound_samples = obs::GlobalMetrics().counter(
    obs::metric::kBoundSamples);
obs::Counter* const g_bound_pct_sum = obs::GlobalMetrics().counter(
    obs::metric::kBoundPctSum);
obs::Histogram* const g_bound_tightness = obs::GlobalMetrics().histogram(
    obs::metric::kBoundTightnessHist);

// Adds one scan's dominance tests and avoided tests to the global counters
// and the calling thread's block, so per-query attribution stays exact
// under the concurrent executor.
void CountScan(std::uint64_t tests, std::uint64_t avoided) {
  obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  if (tests != 0) {
    g_dominance_tests->Inc(tests);
    tc.dominance_tests += tests;
  }
  if (avoided != 0) {
    g_dominance_avoided->Inc(avoided);
    tc.dominance_avoided += avoided;
  }
}

// The one per-row dominance test: a <= b everywhere and a[i] < b[i] -
// margin somewhere. It exits at the first worse component: a branch-free
// form that evaluates every component measured slower (DESIGN.md §19),
// since most rows fail on an early component.
inline bool RowDominates(const Dist* a, const Dist* b, std::size_t dims,
                         double margin) {
  bool strict = false;
  for (std::size_t i = 0; i < dims; ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i] - margin) strict = true;
  }
  return strict;
}

bool RowFinite(const Dist* v, std::size_t dims) {
  for (std::size_t i = 0; i < dims; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

DistSummary SummarizeRow(const Dist* v, std::size_t dims) {
  DistSummary s;
  if (dims == 0) return s;
  s.min = v[0];
  s.max = v[0];
  for (std::size_t i = 1; i < dims; ++i) {
    s.min = std::min(s.min, v[i]);
    s.max = std::max(s.max, v[i]);
  }
  return s;
}

// A closure type rather than a function, so the sort and merge inline it.
constexpr auto kColumnLess = [](const VectorRows::ColumnEntry& a,
                                const VectorRows::ColumnEntry& b) {
  return a.value < b.value || (a.value == b.value && a.row < b.row);
};

// The rows that can be <= b everywhere: the prefix of the column, over all
// dimensions, with the fewest rows <= b in its dimension (the first such
// dimension on a tie), returned from its largest value down. Empty when
// the store has no rows or no dimensions. Over the 24 cold na_cold requests
// the descending order reached a dominator after fewer tests than the
// ascending one: LBC 548k -> 431k, EDC 9.29M -> 8.54M (DESIGN.md §19).
auto CandidatePrefix(const VectorRows& rows, std::span<const Dist> b) {
  std::span<const VectorRows::ColumnEntry> best;
  for (std::size_t k = 0; !rows.empty() && k < rows.dims(); ++k) {
    const std::span<const VectorRows::ColumnEntry> prefix =
        rows.ColumnAtMost(k, b[k]);
    if (k == 0 || prefix.size() < best.size()) best = prefix;
    if (best.empty()) break;
  }
  return best | std::views::reverse;
}

}  // namespace

void VectorRows::Append(std::span<const Dist> v) {
  MSQ_CHECK(v.size() == dims_);
  values_.insert(values_.end(), v.begin(), v.end());
  ++size_;
}

void VectorRows::SwapRemove(std::size_t i) {
  MSQ_CHECK(i < size_);
  --size_;
  if (i != size_) {
    std::copy_n(values_.begin() + size_ * dims_, dims_,
                values_.begin() + i * dims_);
  }
  values_.resize(size_ * dims_);
  columns_.clear();
  indexed_ = 0;
}

std::span<const VectorRows::ColumnEntry> VectorRows::Column(
    std::size_t k) const {
  MSQ_CHECK(k < dims_);
  if (indexed_ != size_ || columns_.empty()) ExtendColumns();
  return columns_[k];
}

std::span<const VectorRows::ColumnEntry> VectorRows::ColumnAtMost(
    std::size_t k, Dist limit) const {
  const std::span<const ColumnEntry> column = Column(k);
  const auto end = std::upper_bound(
      column.begin(), column.end(), limit,
      [](Dist v, const ColumnEntry& e) { return v < e.value; });
  return column.first(static_cast<std::size_t>(end - column.begin()));
}

void VectorRows::ExtendColumns() const {
  MSQ_CHECK(size_ <= std::numeric_limits<std::uint32_t>::max());
  columns_.resize(dims_);
  for (std::size_t k = 0; k < dims_; ++k) {
    // Sort the new rows, then merge them behind the indexed ones: one
    // pass per dimension however many rows arrived since the last search.
    std::vector<ColumnEntry>& column = columns_[k];
    const auto old_end = static_cast<std::ptrdiff_t>(column.size());
    for (std::size_t r = indexed_; r < size_; ++r) {
      const Dist v = values_[r * dims_ + k];
      MSQ_CHECK(!std::isnan(v));
      column.push_back({v, static_cast<std::uint32_t>(r)});
    }
    std::sort(column.begin() + old_end, column.end(), kColumnLess);
    std::inplace_merge(column.begin(), column.begin() + old_end, column.end(),
                       kColumnLess);
  }
  indexed_ = size_;
}

std::size_t FirstDominator(const VectorRows& rows, std::span<const Dist> b,
                           double margin, std::size_t skip) {
  MSQ_CHECK(b.size() == rows.dims());
  const std::size_t size = rows.size();
  const std::size_t dims = rows.dims();
  std::uint64_t tests = 0;
  std::size_t found = size;
  for (const VectorRows::ColumnEntry& e : CandidatePrefix(rows, b)) {
    if (e.row == skip) continue;
    ++tests;
    if (RowDominates(rows.data() + e.row * dims, b.data(), dims, margin)) {
      found = e.row;
      break;
    }
  }
  const std::size_t candidates = size - (skip < size ? 1 : 0);
  CountScan(tests, candidates - tests);
  return found;
}

std::size_t CountDominators(const VectorRows& rows, std::span<const Dist> b,
                            double margin, std::size_t cap) {
  MSQ_CHECK(b.size() == rows.dims());
  const std::size_t dims = rows.dims();
  std::size_t count = 0;
  std::uint64_t tests = 0;
  for (const VectorRows::ColumnEntry& e : CandidatePrefix(rows, b)) {
    if (count >= cap) break;
    ++tests;
    if (RowDominates(rows.data() + e.row * dims, b.data(), dims, margin)) {
      ++count;
    }
  }
  CountScan(tests, rows.size() - tests);
  return count;
}

void CountBoundPruned(std::uint64_t n) {
  if (n == 0) return;
  g_bound_pruned->Inc(n);
  obs::ThreadLocalCounters().bound_pruned += n;
}

void CountBoundExamined(std::uint64_t n) {
  if (n == 0) return;
  g_bound_examined->Inc(n);
  obs::ThreadLocalCounters().bound_examined += n;
}

unsigned RecordBoundTightness(Dist bound, Dist exact) {
  // A zero exact distance (object on the query point) is only reachable
  // with a zero bound; call that perfectly tight rather than dividing.
  double ratio = exact > 0.0 ? static_cast<double>(bound) / exact : 1.0;
  if (ratio < 0.0) ratio = 0.0;
  if (ratio > 1.0) ratio = 1.0;  // FP drift: a bound never exceeds exact
  const unsigned pct = static_cast<unsigned>(ratio * 100.0 + 0.5);
  g_bound_samples->Inc();
  g_bound_pct_sum->Inc(pct);
  g_bound_tightness->Observe(pct);
  obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  ++tc.bound_samples;
  tc.bound_pct_sum += pct;
  return pct;
}

bool Dominates(const DistVector& a, const DistVector& b) {
  MSQ_CHECK(a.size() == b.size());
  CountScan(1, 0);
  return RowDominates(a.data(), b.data(), a.size(), 0.0);
}

bool DominatesOrEqual(const DistVector& a, const DistVector& b) {
  MSQ_CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

bool AllFinite(const DistVector& v) { return RowFinite(v.data(), v.size()); }

DistSummary Summarize(const DistVector& v) {
  return SummarizeRow(v.data(), v.size());
}

std::vector<std::size_t> SkylineIndices(const VectorRows& vectors) {
  const std::size_t dims = vectors.dims();
  VectorRows window(dims);
  std::vector<std::size_t> window_ids;        // parallel to `window`
  std::vector<DistSummary> window_summaries;  // parallel to `window`
  std::uint64_t tests = 0;
  std::uint64_t avoided = 0;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const Dist* v = vectors.row(i).data();
    if (!RowFinite(v, dims)) continue;
    const DistSummary si = SummarizeRow(v, dims);
    bool dominated = false;
    for (std::size_t w = 0; w < window.size();) {
      const Dist* wv = window.row(w).data();
      const DistSummary& sw = window_summaries[w];
      // Each direction is one test; the summary check refutes it without
      // the component loop when min or max is out of order.
      ++tests;
      if (sw.min <= si.min && sw.max <= si.max &&
          RowDominates(wv, v, dims, 0.0)) {
        dominated = true;
        // Early exit: the rest of the window never gets compared against
        // this candidate.
        avoided += window.size() - w - 1;
        break;
      }
      ++tests;
      if (si.min <= sw.min && si.max <= sw.max &&
          RowDominates(v, wv, dims, 0.0)) {
        window.SwapRemove(w);
        window_ids[w] = window_ids.back();
        window_ids.pop_back();
        window_summaries[w] = window_summaries.back();
        window_summaries.pop_back();
        continue;
      }
      ++w;
    }
    if (!dominated) {
      window.Append({v, dims});
      window_ids.push_back(i);
      window_summaries.push_back(si);
    }
  }
  CountScan(tests, avoided);
  std::sort(window_ids.begin(), window_ids.end());
  return window_ids;
}

std::vector<std::size_t> SkylineIndices(
    const std::vector<DistVector>& vectors) {
  VectorRows rows(vectors.empty() ? 0 : vectors.front().size());
  for (const DistVector& v : vectors) rows.Append(v);
  return SkylineIndices(rows);
}

}  // namespace msq
