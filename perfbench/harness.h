// Shared pieces of the repo benchmark: workload sizing, the fixed query
// pools and their seeded streams, benchmark-side spans, answer digests,
// and the closed-loop clients for the executor and the served workloads.
//
// Everything here reaches the msq modules only through their public
// headers; the program under test carries no benchmark instrumentation.
#ifndef MSQ_PERFBENCH_HARNESS_H_
#define MSQ_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Workload definitions.

// One workload's shape, read from workloads.json (the only place it is
// written down).
struct Sizing {
  std::string name;
  msq::NetworkClass network = msq::NetworkClass::kNA;
  double scale = 1.0;
  std::uint64_t network_seed = 1;
  // Query-point sets in the pool; |Q| points each, drawn with
  // Workload::SampleQuery from `qset_seed_base + i`.
  std::size_t qsets = 0;
  std::size_t qsize = 4;
  std::uint64_t qset_seed_base = 1000;
  // true: every query-point set is run under CE, EDC and LBC (3 pool
  // entries each); false: one entry per set, algorithms round robin.
  bool every_algorithm = false;
  // Requests per pass of the stream; 0 = each pool entry once (uniform).
  // Otherwise pool entry r appears max(1, round(pass * w_r)) times with
  // Zipf weights w_r ~ 1/(r+1).
  std::size_t zipf_pass = 0;
  // Every end-to-end window runs one closed-loop client against one
  // executor worker. The traced run adds a window at this many workers and
  // outstanding requests (exec.speedup, exec.run_inflation).
  std::size_t speedup_workers = 3;
  bool cache = false;
  std::size_t cache_mb = 64;  // QueryCache byte budget
  bool served = false;
  std::size_t mutate_every = 0;  // served only: every Nth request per conn
  double tail_quantile = 0.99;
  // Untimed warm-up requests in set-up; 0 = one pass over the pool.
  std::size_t warmup_requests = 0;
  // Recorded dataset sizes, checked against the built dataset; 0 = not
  // checked (smoke sizes).
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t objects = 0;
  std::size_t graph_pages = 0;
  std::size_t index_pages = 0;
  std::size_t frames = 0;  // graph buffer-pool frames
};

// Reads workload `name` from the workloads file at `path`, at full or
// smoke size. False with `error` set when the file or the entry is
// missing or malformed.
bool LoadSizing(const std::string& path, const std::string& name, bool smoke,
                Sizing* out, std::string* error);

// Empty when `workload` has the recorded sizes of `sizing`, else a
// message naming the first difference.
std::string CheckRecordedSizes(const Sizing& sizing, msq::Workload& workload);

// ---------------------------------------------------------------------------
// Query pool and stream.

struct PoolEntry {
  std::size_t qset = 0;
  msq::Algorithm algorithm = msq::Algorithm::kCe;
};

struct Pool {
  std::vector<msq::SkylineQuerySpec> qsets;
  std::vector<PoolEntry> entries;
  // One pass of the stream, as a multiset of entry indices.
  std::vector<std::size_t> pass;
};

Pool BuildPool(const Sizing& sizing, const msq::Workload& workload);

// The request stream: consecutive passes over the pool's pass, each in a
// fresh order drawn from the seed. The multiset of work per pass is fixed
// by the workload; the seed decides the order. Thread-safe.
class Stream {
 public:
  Stream(const Pool* pool, std::uint64_t seed);
  // Next pool entry; `pass` (optional) receives the number of its pass.
  std::size_t Next(std::uint64_t* pass = nullptr);

 private:
  void Reshuffle();

  const Pool* pool_;
  std::uint64_t seed_;
  std::mutex mu_;
  std::vector<std::size_t> order_;
  std::size_t position_ = 0;
  std::uint64_t cycle_ = 0;
};

// ---------------------------------------------------------------------------
// Benchmark-side spans: kept in memory, written once when the run ends.

struct SpanRecord {
  const char* name = "";
  double start = 0.0;  // MonotonicSeconds()
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not tied to one request
};

class Spans {
 public:
  static void Enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static std::uint64_t NewId();
  // Records a finished span; returns its id (0 when disabled). `id` 0
  // allocates a fresh one.
  static std::uint64_t Add(const char* name, double start, double end,
                           std::uint64_t parent = 0,
                           std::uint64_t request = 0, std::uint64_t id = 0);
  static std::vector<SpanRecord> Snapshot();
  // Writes {"spans":[...]} to `path`; false on I/O failure.
  static bool Write(const std::string& path, const std::string& workload,
                    std::uint64_t seed);

 private:
  static std::atomic<bool> enabled_;
};

// One span around a scope; inert when spans are disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t parent = 0,
                      std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  double start_ = 0.0;
};

// ---------------------------------------------------------------------------
// Answers and statistics.

// FNV-1a over the skyline in result order: object ids and the bit
// patterns of every vector component. Equal digests == byte-identical
// answers (up to hash collisions).
std::uint64_t AnswerDigest(const msq::SkylineResult& result);

// Object ids of the skyline, sorted (cross-algorithm agreement).
std::vector<msq::ObjectId> SortedIds(const msq::SkylineResult& result);

// Linear-interpolated quantile of `values` (copied and sorted); 0 when
// empty.
double Quantile(std::vector<double> values, double q);

double PeakRssMb();

// ---------------------------------------------------------------------------
// Closed-loop windows.

// One request as the client saw it.
struct Sample {
  std::size_t entry = 0;     // pool entry (queries)
  bool mutation = false;     // served churn write
  double submit = 0.0;       // client send / Submit
  double done = 0.0;         // client reply / future ready
  double exec_start = 0.0;   // SkylineResult::exec_started_at (executor)
  double exec_finish = 0.0;  // SkylineResult::exec_finished_at (executor)
  bool ok = false;           // answered, not truncated, not an error
  std::uint64_t digest = 0;  // executor queries only
  std::uint64_t request = 0;
  std::uint64_t pass = 0;    // stream pass (a write: its connection's last)
  msq::QueryStats stats;     // executor queries only
};

// End-to-end figures of a window over its complete passes only, so that
// every run measures whole copies of the same multiset of work.
struct PassFigures {
  std::size_t passes = 0;  // complete passes in the window
  double qps = 0.0;        // their requests over their summed wall time
  double p50_ms = 0.0;     // median client latency of their requests
  double tail_ms = 0.0;    // the `tail` quantile of the same latencies
};

struct Window {
  double begin = 0.0;
  double end = 0.0;
  std::vector<Sample> samples;  // every request sent before `end`

  // Answered requests per second. Each request counts in proportion to the
  // share of its [submit, done] interval inside the window, so a long
  // request straddling either edge does not make the rate step.
  double Qps() const;
  // Every pass whose `pass_size` queries are all in the window and answered
  // OK is complete; it covers its queries and the writes sent with them.
  // The partial passes at either end are left out.
  PassFigures Passes(std::size_t pass_size, double tail) const;
};

// Runs `outstanding` closed-loop clients against `executor` for
// `seconds`, drawing requests from `stream`. Every request sent before the
// deadline is drained and returned, including those answered after it.
Window RunExecutorWindow(msq::QueryExecutor& executor, const Pool& pool,
                         Stream& stream, std::size_t outstanding,
                         double seconds);

// Served churn: `connections` closed-loop NDJSON clients; every
// `mutate_every`th request of a connection is a mutation. Mutation
// choices come from `seed` and the connection index.
struct ChurnPlan {
  // Query body per pool entry, after the opening brace (EncodeQueryLine).
  std::vector<std::string> encoded;
  std::vector<double> original_lengths;  // per edge, at build time
  std::size_t mutate_every = 10;
  std::uint64_t seed = 1;
};

Window RunServedWindow(std::uint16_t port, Stream& stream,
                       const ChurnPlan& plan, std::size_t connections,
                       double seconds);

// NDJSON body of pool entry `entry` without its opening brace, so the
// client can prepend {"id":...,.
std::string EncodeQueryLine(const Pool& pool, std::size_t entry);

// Request ids are global and unique within a process.
std::uint64_t NextRequestId();

}  // namespace perfbench

#endif  // MSQ_PERFBENCH_HARNESS_H_
