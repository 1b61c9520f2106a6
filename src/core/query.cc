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

// `buffer`'s hit/miss rows as a query window on the calling thread sees
// them. Pools attached to a query-stack role (Workload's two pools) are
// read from the thread-local counter block, which is exact per query even
// while other executor workers hammer the same pools; unattached pools
// (raw test setups) fall back to pool-wide totals, which are exact only
// when the pool is used from one thread — the historical behavior. An
// absent pool reads zero.
void WindowBufferRows(const BufferManager* buffer,
                      const obs::ThreadCounters& tc, std::uint64_t* hits,
                      std::uint64_t* misses) {
  if (buffer == nullptr) {
    *hits = 0;
    *misses = 0;
    return;
  }
  switch (buffer->role()) {
    case BufferRole::kNetwork:
      *hits = tc.network_hits;
      *misses = tc.network_misses;
      return;
    case BufferRole::kIndex:
      *hits = tc.index_hits;
      *misses = tc.index_misses;
      return;
    case BufferRole::kNone:
      break;
  }
  const BufferStats stats = buffer->stats();
  *hits = stats.hits;
  *misses = stats.misses;
}

// The calling thread's counter block with the buffer rows taken per
// WindowBufferRows for the dataset's two pools.
obs::Counters WindowCounters(const Dataset& dataset) {
  const obs::ThreadCounters& tc = obs::ThreadLocalCounters();
  obs::Counters counters = tc;
  WindowBufferRows(dataset.graph_buffer, tc, &counters.network_hits,
                   &counters.network_misses);
  WindowBufferRows(dataset.index_buffer, tc, &counters.index_hits,
                   &counters.index_misses);
  return counters;
}

}  // namespace

QueryGuard::QueryGuard(const Dataset& dataset, const QueryLimits& limits)
    : dataset_(dataset), limits_(limits) {
  if (limits_.max_page_accesses > 0) accesses_0_ = PageAccesses();
  if (limits_.max_seconds > 0.0) start_ = MonotonicSeconds();
}

std::uint64_t QueryGuard::PageAccesses() const {
  const obs::Counters counters = WindowCounters(dataset_);
  return counters.network_accesses() + counters.index_accesses();
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
      root_span_(trace, root_name), counters_0_(WindowCounters(dataset)),
      start_(MonotonicSeconds()) {}

void StatsScope::MarkInitial() {
  if (initial_ < 0.0) initial_ = MonotonicSeconds() - start_;
}

void StatsScope::Finish(QueryStats* stats) {
  // Close the root span first: everything the stats window counted is then
  // attributed to some span, and nothing after this call can leak in.
  root_span_.Close();
  stats->total_seconds = MonotonicSeconds() - start_;
  stats->initial_seconds = initial_ >= 0.0 ? initial_ : stats->total_seconds;
  stats->counters = WindowCounters(dataset_) - counters_0_;
  stats->network_pages = stats->counters.network_misses;
  stats->network_page_accesses = stats->counters.network_accesses();
  stats->index_pages = stats->counters.index_misses;
  stats->index_page_accesses = stats->counters.index_accesses();
}

}  // namespace msq
