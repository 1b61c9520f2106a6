// Query-phase tracing: TraceSession + RAII Span.
//
// A TraceSession records a tree of named spans. At every span open/close it
// snapshots every row of the counter table (obs/metrics.h) and attributes
// the delta since the previous snapshot to the span that was innermost over
// that interval ("self" attribution). Because the deltas partition the
// session's counter consumption, the self counters of all spans sum
// *exactly* to the root span's inclusive totals — which is what lets a
// query profile reconcile against the run's top-level QueryStats.
//
// A loop that alternates between phases per candidate uses switched
// phases (Phases below) instead of a span per stay: a phase keeps one
// record however often it is entered, and each switch costs one counter
// read and one clock read.
//
// Tracing is opt-in per query (SkylineQuerySpec::trace). With a null
// session every Span operation is a pointer test, so the instrumented
// algorithms pay near-zero overhead when profiling is off.
#ifndef MSQ_OBS_TRACE_H_
#define MSQ_OBS_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace msq::obs {

// One finished span. Spans appear in open order; spans[0] of a profile is
// the root covering the whole query.
struct SpanRecord {
  std::string name;
  int parent = -1;  // index into the profile's spans; -1 for the root
  int depth = 0;
  double start_seconds = 0.0;  // relative to the session epoch
  // start_seconds plus the time the span was open. A switched phase is
  // open over several stays, so its end is its first entry plus their sum.
  double end_seconds = 0.0;
  // Counter deltas attributed exclusively to this span (intervals where it
  // was the innermost open span).
  Counters self;
  // Wall time spent in direct children (self wall = duration - children).
  double child_seconds = 0.0;
  // High-water mark of the core.heap_peak gauge while this span was open
  // (children included).
  double heap_peak = 0.0;

  double duration_seconds() const { return end_seconds - start_seconds; }
  double self_seconds() const { return duration_seconds() - child_seconds; }
};

// The finished trace of one query, carried on SkylineResult.
struct QueryProfile {
  std::vector<SpanRecord> spans;
  // Spans not recorded because the session hit its span cap. Counter
  // attribution stays exact: dropped spans' activity folds into the
  // innermost recorded ancestor.
  std::size_t dropped_spans = 0;

  // Inclusive counters of span `i`: its self deltas plus all descendants'.
  Counters InclusiveCounters(std::size_t i) const;
  // Sum of self counters across every span (== root inclusive totals).
  Counters TotalCounters() const;
};

// Records one span tree. Reusable: Take() returns the finished profile and
// resets the session for the next query. Spans must not outlive the Take()
// of the session they were opened in.
//
// A session is owned by one thread (each QueryExecutor worker constructs
// its own). When tracking the global registry it snapshots the calling
// thread's obs::ThreadCounters instead of the shared totals, so span deltas
// cover exactly the owning thread's work — other workers hammering the same
// buffer pools never leak into this query's profile, and the exact
// self-sum == root-inclusive reconciliation survives concurrency. A custom
// registry (isolated tests) is snapshotted directly, as before.
class TraceSession {
 public:
  // Tracked counters are resolved from `registry` once at construction.
  explicit TraceSession(MetricsRegistry* registry = &GlobalMetrics());

  // Opens a span as a child of the innermost open span. Returns an id for
  // CloseSpan, or -1 when the span cap was hit (activity then accrues to
  // the nearest recorded ancestor).
  int OpenSpan(std::string_view name);

  // Closes `id`, force-closing any still-open descendants first (an
  // unbalanced close is handled, not UB). No-op for -1 or already-closed
  // ids.
  void CloseSpan(int id);

  // Switched phases. Leaves phase `from` (-1: none; no-op when it is not
  // open), then enters `to`: the id an earlier switch returned, kNewPhase
  // to open a fresh record named `name` under the innermost span left open,
  // or -1 to enter none. Returns the entered id (-1 for none, or when the
  // span cap was hit). One counter read and one clock read charge the
  // interval since the last one to the span being left.
  static constexpr int kNewPhase = -2;
  int SwitchPhase(int from, int to, std::string_view name = {});

  // Force-closes every open span, returns the finished profile, and resets
  // the session for reuse.
  QueryProfile Take();

  bool idle() const { return stack_.empty(); }
  std::size_t open_depth() const { return stack_.size(); }

  // Detail mode gates the optional fine-grained spans opened via
  // DetailSpan() (per-miss storage page reads, cache probes). Off by
  // default; the executor enables it only for head-sampled requests, so
  // always-on coarse tracing pays nothing for it.
  void set_detail(bool on) { detail_ = on; }
  bool detail() const { return detail_; }

 private:
  // An open span: its record, when it was (re-)entered, and the enclosing
  // heap peak saved at entry.
  struct Open {
    int id;
    double entered;
    double saved_peak;
  };

  Counters Read() const;
  // Attributes the counter delta since the last snapshot to the innermost
  // open span (dropped if none) and advances the snapshot.
  void Attribute();
  // Appends a record named `name` under the innermost open span; -1 at the
  // span cap.
  int NewRecord(std::string_view name, double now);
  void Enter(int id, double now);
  bool IsOpen(int id) const;
  // Closes the open spans down to and including `id`, which must be open.
  void CloseThrough(int id, double now);
  void CloseTop(double now);

  // Heap-gauge scoping, routed to the thread-local block or the registry
  // gauge depending on the mode.
  double HeapPeak() const;
  void HeapResetPeak();
  void HeapMergePeak(double peak);

  // True when tracking the global registry: snapshots come from the calling
  // thread's ThreadCounters rather than the shared atomic totals.
  bool per_thread_;
  // Registry counters of the table rows, in kCounterRows order.
  std::array<Counter*, kCounterCount> counters_;
  Gauge* heap_peak_;

  std::vector<SpanRecord> spans_;
  std::vector<Open> stack_;  // open spans, root first
  Counters last_;
  double epoch_ = 0.0;
  std::size_t dropped_ = 0;
  bool detail_ = false;
};

// RAII handle for one span. All operations are no-ops when constructed with
// a null session, which is how algorithms run untraced.
class Span {
 public:
  Span() = default;
  Span(TraceSession* session, std::string_view name)
      : session_(session) {
    if (session_ != nullptr) id_ = session_->OpenSpan(name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept : session_(other.session_), id_(other.id_) {
    other.session_ = nullptr;
    other.id_ = -1;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      Close();
      session_ = other.session_;
      id_ = other.id_;
      other.session_ = nullptr;
      other.id_ = -1;
    }
    return *this;
  }
  ~Span() { Close(); }

  void Close() {
    if (session_ != nullptr) session_->CloseSpan(id_);
    session_ = nullptr;
    id_ = -1;
  }

 private:
  TraceSession* session_ = nullptr;
  int id_ = -1;
};

// The switched phases of one loop, entered by index. Each phase gets one
// record under the span open at its first entry, reused on every later
// entry; its counters and time accumulate over its stays. Everything the
// loop does while a phase is current is charged to it, so a loop that
// enters phase B after phase A, and A again after B, pays one switch per
// change. Leave() returns to the enclosing span. All operations are no-ops
// with a null session.
template <std::size_t N>
class Phases {
 public:
  Phases(TraceSession* session, std::array<std::string_view, N> names)
      : session_(session), names_(names) {
    ids_.fill(TraceSession::kNewPhase);
  }
  Phases(const Phases&) = delete;
  Phases& operator=(const Phases&) = delete;
  ~Phases() { Leave(); }

  void Enter(std::size_t phase) {
    if (session_ == nullptr) return;
    current_ = session_->SwitchPhase(current_, ids_[phase], names_[phase]);
    if (ids_[phase] == TraceSession::kNewPhase) ids_[phase] = current_;
  }
  void Leave() {
    if (session_ == nullptr || current_ < 0) return;
    session_->SwitchPhase(current_, -1);
    current_ = -1;
  }

 private:
  TraceSession* const session_;
  const std::array<std::string_view, N> names_;
  std::array<int, N> ids_;
  int current_ = -1;
};

// The session currently tracing the calling thread's query, or null.
// StatsScope registers the query's session for exactly the window its
// stats cover, which lets layers that have no session pointer of their own
// (BufferManager, QueryCache) attach detail spans to the running query.
TraceSession* CurrentTraceSession();

// RAII registration of the calling thread's current session; restores the
// previous pointer on destruction (nested queries are not a thing today,
// but a fault unwind must not leave a dangling registration).
class ScopedCurrentSession {
 public:
  explicit ScopedCurrentSession(TraceSession* session);
  ~ScopedCurrentSession();
  ScopedCurrentSession(const ScopedCurrentSession&) = delete;
  ScopedCurrentSession& operator=(const ScopedCurrentSession&) = delete;

 private:
  TraceSession* prev_;
};

// A span on the calling thread's current session — but only when that
// session is in detail mode. Otherwise (no session, or coarse tracing)
// this is a no-op Span: one thread-local load and a branch.
Span DetailSpan(std::string_view name);

}  // namespace msq::obs

#endif  // MSQ_OBS_TRACE_H_
