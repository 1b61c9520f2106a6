#include "core/query.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace msq {

DistVector Dataset::StaticAttributesOf(ObjectId id) const {
  if (static_dims() == 0) return {};
  MSQ_CHECK(id < static_attributes->size());
  return (*static_attributes)[id];
}

DistVector Dataset::MinStaticAttributes() const {
  const std::size_t dims = static_dims();
  if (dims == 0) return {};
  DistVector mins((*static_attributes)[0]);
  for (const DistVector& v : *static_attributes) {
    MSQ_CHECK(v.size() == dims);
    for (std::size_t i = 0; i < dims; ++i) {
      mins[i] = std::min(mins[i], v[i]);
    }
  }
  return mins;
}

std::vector<SkylineEntry> RemoveTieDominated(std::vector<SkylineEntry> skyline,
                                             const VectorRows& rows) {
  MSQ_CHECK(rows.size() == skyline.size());
  std::vector<SkylineEntry> kept;
  for (std::size_t i = 0; i < skyline.size(); ++i) {
    if (FirstDominator(rows, rows.row(i), 0.0, i) == rows.size()) {
      kept.push_back(std::move(skyline[i]));
    }
  }
  return kept;
}

Status ValidateQuery(const Dataset& dataset, const SkylineQuerySpec& spec) {
  // Missing dataset wiring is a programming error, not query input.
  MSQ_CHECK(dataset.network != nullptr && dataset.graph_pager != nullptr &&
            dataset.mapping != nullptr && dataset.object_rtree != nullptr);
  if (spec.sources.empty()) {
    return Status::InvalidArgument("query needs at least one source");
  }
  if (spec.lbc_source_index >= spec.sources.size()) {
    return Status::InvalidArgument(
        "lbc_source_index " + std::to_string(spec.lbc_source_index) +
        " out of range for " + std::to_string(spec.sources.size()) +
        " sources");
  }
  for (const Location& source : spec.sources) {
    if (!dataset.network->IsValidLocation(source)) {
      return Status::InvalidArgument(
          "query source (edge " + std::to_string(source.edge) + ", offset " +
          std::to_string(source.offset) + ") invalid");
    }
  }
  if (spec.limits.max_seconds < 0.0) {
    return Status::InvalidArgument("negative query deadline");
  }
  if (spec.limits.deadline_at < 0.0) {
    return Status::InvalidArgument("negative absolute deadline");
  }
  if (dataset.static_attributes != nullptr &&
      !dataset.static_attributes->empty()) {
    MSQ_CHECK(dataset.static_attributes->size() == dataset.object_count());
  }
  return Status();
}

namespace {

// `buffer`'s miss/access counts as seen by the calling thread. Pools
// attached to a query-stack role (Workload's two pools) are read from the
// thread-local counter block, which is exact per query even while other
// executor workers hammer the same pools; unattached pools (raw test
// setups) fall back to pool-wide totals, which are exact only when the
// pool is used from one thread — the historical behavior.
void ThreadBufferCounts(const BufferManager& buffer, std::uint64_t* misses,
                        std::uint64_t* accesses) {
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  switch (buffer.role()) {
    case BufferRole::kNetwork:
      *misses = tc.network_misses;
      *accesses = tc.network_accesses();
      return;
    case BufferRole::kIndex:
      *misses = tc.index_misses;
      *accesses = tc.index_accesses();
      return;
    case BufferRole::kNone:
      break;
  }
  const BufferStats stats = buffer.stats();
  *misses = stats.misses;
  *accesses = stats.accesses();
}

}  // namespace

QueryGuard::QueryGuard(const Dataset& dataset, const QueryLimits& limits)
    : dataset_(dataset), limits_(limits) {
  if (limits_.max_page_accesses > 0) accesses_0_ = PageAccesses();
  if (limits_.max_seconds > 0.0) start_ = MonotonicSeconds();
}

std::uint64_t QueryGuard::PageAccesses() const {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0, count = 0;
  if (dataset_.graph_buffer != nullptr) {
    ThreadBufferCounts(*dataset_.graph_buffer, &misses, &count);
    accesses += count;
  }
  if (dataset_.index_buffer != nullptr) {
    ThreadBufferCounts(*dataset_.index_buffer, &misses, &count);
    accesses += count;
  }
  return accesses;
}

bool QueryGuard::Exceeded() {
  if (reason_ != StatusCode::kOk) return true;
  if (limits_.max_page_accesses > 0 &&
      PageAccesses() - accesses_0_ > limits_.max_page_accesses) {
    reason_ = StatusCode::kResourceExhausted;
    return true;
  }
  if (limits_.max_seconds > 0.0 &&
      MonotonicSeconds() - start_ > limits_.max_seconds) {
    reason_ = StatusCode::kDeadlineExceeded;
    return true;
  }
  if (limits_.deadline_at > 0.0 &&
      MonotonicSeconds() >= limits_.deadline_at) {
    reason_ = StatusCode::kDeadlineExceeded;
    return true;
  }
  return false;
}

double MonotonicSeconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

StatsScope::StatsScope(const Dataset& dataset, obs::TraceSession* trace,
                       std::string_view root_name)
    : dataset_(dataset), current_session_(trace),
      root_span_(trace, root_name) {
  if (dataset.graph_buffer != nullptr) {
    ThreadBufferCounts(*dataset.graph_buffer, &graph_misses_0_,
                       &graph_accesses_0_);
  }
  if (dataset.index_buffer != nullptr) {
    ThreadBufferCounts(*dataset.index_buffer, &index_misses_0_,
                       &index_accesses_0_);
  }
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  cache_wf_hits_0_ = tc.cache_wavefront_hits;
  cache_wf_misses_0_ = tc.cache_wavefront_misses;
  cache_memo_hits_0_ = tc.cache_memo_hits;
  cache_memo_misses_0_ = tc.cache_memo_misses;
  dominance_tests_0_ = tc.dominance_tests;
  dominance_avoided_0_ = tc.dominance_avoided;
  bound_pruned_0_ = tc.bound_pruned;
  bound_examined_0_ = tc.bound_examined;
  bound_samples_0_ = tc.bound_samples;
  bound_pct_sum_0_ = tc.bound_pct_sum;
  start_ = MonotonicSeconds();
}

void StatsScope::MarkInitial() {
  if (initial_ < 0.0) initial_ = MonotonicSeconds() - start_;
}

void StatsScope::Finish(QueryStats* stats) {
  // Close the root span first: everything the stats window counted is then
  // attributed to some span, and nothing after this call can leak in.
  root_span_.Close();
  stats->total_seconds = MonotonicSeconds() - start_;
  stats->initial_seconds = initial_ >= 0.0 ? initial_ : stats->total_seconds;
  std::uint64_t misses = 0, accesses = 0;
  if (dataset_.graph_buffer != nullptr) {
    ThreadBufferCounts(*dataset_.graph_buffer, &misses, &accesses);
    stats->network_pages = misses - graph_misses_0_;
    stats->network_page_accesses = accesses - graph_accesses_0_;
    MSQ_CHECK(stats->network_page_accesses >= stats->network_pages);
  }
  if (dataset_.index_buffer != nullptr) {
    ThreadBufferCounts(*dataset_.index_buffer, &misses, &accesses);
    stats->index_pages = misses - index_misses_0_;
    stats->index_page_accesses = accesses - index_accesses_0_;
    MSQ_CHECK(stats->index_page_accesses >= stats->index_pages);
  }
  // Cache consultations are a separate access class (never part of the
  // page counters above); the same thread-local delta discipline keeps
  // them exact per query under a concurrent executor.
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  stats->cache_wavefront_hits = tc.cache_wavefront_hits - cache_wf_hits_0_;
  stats->cache_wavefront_misses =
      tc.cache_wavefront_misses - cache_wf_misses_0_;
  stats->cache_memo_hits = tc.cache_memo_hits - cache_memo_hits_0_;
  stats->cache_memo_misses = tc.cache_memo_misses - cache_memo_misses_0_;
  stats->dominance_tests = tc.dominance_tests - dominance_tests_0_;
  stats->dominance_tests_avoided =
      tc.dominance_avoided - dominance_avoided_0_;
  stats->bound_pruned = tc.bound_pruned - bound_pruned_0_;
  stats->bound_examined = tc.bound_examined - bound_examined_0_;
  stats->bound_tightness_samples = tc.bound_samples - bound_samples_0_;
  stats->bound_tightness_pct_sum = tc.bound_pct_sum - bound_pct_sum_0_;
}

}  // namespace msq
