#include "obs/trace.h"

#include <algorithm>
#include <chrono>

namespace msq::obs {
namespace {

// Bounds a runaway span tree (e.g. a per-candidate span in a huge query);
// far above any profile a human or the Chrome viewer can use.
constexpr std::size_t kMaxSpans = 1 << 17;

double NowSeconds() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

}  // namespace

Counters QueryProfile::InclusiveCounters(std::size_t i) const {
  Counters total = spans[i].self;
  // Children appear after their parent (spans are in open order), so one
  // forward sweep over descendants suffices.
  for (std::size_t j = i + 1; j < spans.size(); ++j) {
    int p = spans[j].parent;
    while (p > static_cast<int>(i)) p = spans[p].parent;
    if (p == static_cast<int>(i)) total += spans[j].self;
  }
  return total;
}

Counters QueryProfile::TotalCounters() const {
  Counters total;
  for (const SpanRecord& span : spans) total += span.self;
  return total;
}

TraceSession::TraceSession(MetricsRegistry* registry)
    : per_thread_(registry == &GlobalMetrics()),
      heap_peak_(registry->gauge(metric::kHeapPeak)) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters_[i] = registry->counter(kCounterRows[i].metric);
  }
}

Counters TraceSession::Read() const {
  // The instrumented hot paths bump the thread-local block alongside the
  // global counters, so this thread's view is exact even while other
  // workers advance the shared totals.
  if (per_thread_) return ThreadLocalCounters();
  Counters snap;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.*kCounterRows[i].member = counters_[i]->value();
  }
  return snap;
}

double TraceSession::HeapPeak() const {
  return per_thread_ ? ThreadLocalCounters().heap_peak : heap_peak_->peak();
}

void TraceSession::HeapResetPeak() {
  if (per_thread_) {
    ThreadLocalCounters().ResetHeapPeak();
  } else {
    heap_peak_->ResetPeak();
  }
}

void TraceSession::HeapMergePeak(double peak) {
  if (per_thread_) {
    ThreadLocalCounters().MergeHeapPeak(peak);
  } else {
    heap_peak_->MergePeak(peak);
  }
}

void TraceSession::Attribute() {
  const Counters now = Read();
  if (!stack_.empty()) spans_[stack_.back().id].self += now - last_;
  last_ = now;
}

int TraceSession::NewRecord(std::string_view name, double now) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  if (stack_.empty() && spans_.empty()) epoch_ = now;
  SpanRecord span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back().id;
  span.depth = static_cast<int>(stack_.size());
  span.start_seconds = now - epoch_;
  span.end_seconds = span.start_seconds;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void TraceSession::Enter(int id, double now) {
  // Scope the heap high-water mark to this stay; the outer peak is folded
  // back in when it ends.
  stack_.push_back(Open{id, now, HeapPeak()});
  HeapResetPeak();
}

int TraceSession::OpenSpan(std::string_view name) {
  Attribute();
  const double now = NowSeconds();
  const int id = NewRecord(name, now);
  if (id >= 0) Enter(id, now);
  return id;
}

void TraceSession::CloseTop(double now) {
  const Open top = stack_.back();
  SpanRecord& span = spans_[top.id];
  const double stay = now - top.entered;
  span.end_seconds += stay;
  span.heap_peak = std::max(span.heap_peak, HeapPeak());
  HeapMergePeak(top.saved_peak);
  if (span.parent >= 0) spans_[span.parent].child_seconds += stay;
  stack_.pop_back();
}

bool TraceSession::IsOpen(int id) const {
  for (const Open& entry : stack_) {
    if (entry.id == id) return true;
  }
  return false;
}

void TraceSession::CloseThrough(int id, double now) {
  while (!stack_.empty()) {
    const bool was_target = stack_.back().id == id;
    CloseTop(now);
    if (was_target) break;
  }
}

void TraceSession::CloseSpan(int id) {
  // Already closed (possibly force-closed by a parent): nothing to do.
  if (!IsOpen(id)) return;
  Attribute();
  CloseThrough(id, NowSeconds());
}

int TraceSession::SwitchPhase(int from, int to, std::string_view name) {
  Attribute();
  const double now = NowSeconds();
  if (IsOpen(from)) CloseThrough(from, now);
  if (to == kNewPhase) to = NewRecord(name, now);
  if (to < 0 || static_cast<std::size_t>(to) >= spans_.size()) return -1;
  Enter(to, now);
  return to;
}

QueryProfile TraceSession::Take() {
  Attribute();
  const double now = NowSeconds();
  while (!stack_.empty()) CloseTop(now);
  QueryProfile profile;
  profile.spans = std::move(spans_);
  profile.dropped_spans = dropped_;
  spans_.clear();
  dropped_ = 0;
  epoch_ = 0.0;
  return profile;
}

namespace {
thread_local TraceSession* g_current_session = nullptr;
}  // namespace

TraceSession* CurrentTraceSession() { return g_current_session; }

ScopedCurrentSession::ScopedCurrentSession(TraceSession* session)
    : prev_(g_current_session) {
  g_current_session = session;
}

ScopedCurrentSession::~ScopedCurrentSession() {
  g_current_session = prev_;
}

Span DetailSpan(std::string_view name) {
  TraceSession* session = g_current_session;
  if (session == nullptr || !session->detail()) return Span();
  return Span(session, name);
}

}  // namespace msq::obs
