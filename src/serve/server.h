// The serving front door: a persistent-connection TCP server running
// skyline queries through a QueryExecutor with admission control, load
// shedding, deadline propagation, and graceful drain.
//
// Two protocols share one port, sniffed per connection from the first
// frame:
//
//   * NDJSON (persistent): each request is one JSON object on one line
//     (serve/request.h schema), each response one JSON line. A malformed
//     request gets a structured error response and the connection lives
//     on — framing resynchronizes at the next newline.
//   * Minimal HTTP/1.1 (curl/Prometheus-friendly, Connection: close):
//     POST /query with the same JSON body; GET /metrics (Prometheus text
//     exposition with retained-trace exemplars), GET /healthz (live
//     readiness: draining flag, data epoch, admission watermark
//     occupancy), GET /statz (accounting snapshot), GET /tracez
//     (tail-retained traces; with ?trace_id= the Chrome-trace export of
//     one), GET /requestz (recent canonical wide events), GET /explainz
//     (recent execution plans + per-algorithm pruning efficiency,
//     DESIGN.md §17), GET /debugz (the one-shot postmortem bundle:
//     build info, config, epochs, shard balance, admission accounting,
//     flight ring, retained traces, metric snapshots, recent plans).
//
// EXPLAIN: a query carrying "explain":true runs with plan collection and
// its response carries the structured ExecutionPlan as a "plan" field —
// the same plan /explainz retains for recent queries.
//
// Request tracing: a trace context arrives as a "traceparent" request
// field (NDJSON or POST body) or a traceparent HTTP header; absent one,
// the server mints an id with the telemetry head-sampling coin. The
// context flows through admission into the executor, and every request —
// including rejected and shed ones — emits one wide-event line into a
// bounded ring (DESIGN.md §14).
//
// Overload behavior, in order of the degradation ladder:
//   1. deadline propagation — the client deadline becomes
//      QueryLimits::deadline_at, so queue wait counts and an overloaded
//      server produces truncated-prefix results instead of late full ones;
//   2. load shedding — beyond the admission watermarks new requests get an
//      immediate RESOURCE_EXHAUSTED response with a retry_after_ms hint;
//   3. connection cap — beyond max_connections new sockets get a shed
//      response and close, so accept backlog cannot hoard fds.
//
// Slow or hostile peers are bounded in every direction: per-connection
// read/write timeouts, a frame-size cap enforced mid-read, EINTR/partial
// -write-safe I/O that never raises SIGPIPE (serve/socket.h).
#ifndef MSQ_SERVE_SERVER_H_
#define MSQ_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/request_context.h"
#include "obs/trace_store.h"
#include "serve/admission.h"
#include "serve/request.h"
#include "serve/socket.h"

namespace msq::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; port() reports the actual one.
  std::uint16_t port = 0;
  int backlog = 64;
  // Concurrent connections; beyond this, new sockets are shed and closed.
  std::size_t max_connections = 64;
  // Per-frame (request line or HTTP body) byte cap.
  std::size_t max_request_bytes = 64 * 1024;
  // Per-recv timeout. For an idle persistent connection this is the idle
  // timeout (closed quietly); mid-frame it is the slow-client bound
  // (error + close).
  double read_timeout_seconds = 10.0;
  // Per-send stall bound: a reader that stops draining its socket for
  // this long gets disconnected.
  double write_timeout_seconds = 5.0;
  // Applied when a request carries no deadline (0 = unlimited).
  double default_deadline_ms = 0.0;
  AdmissionConfig admission;
  // Executes parsed mutation requests ("op" field, serve/request.h) —
  // typically WorkloadMutationHandler below. Null (the default) rejects
  // every mutation with INVALID_ARGUMENT; queries are unaffected.
  MutationHandler mutation_handler;
  // Registry served by GET /metrics; null = GlobalMetrics(). Should match
  // the executor's telemetry registry so one scrape sees everything.
  obs::MetricsRegistry* registry = nullptr;
  // Bounded ring of canonical wide events (GET /requestz).
  std::size_t wide_event_capacity = obs::WideEventLog::kDefaultCapacity;
};

// Applies each mutation to `workload` under `executor`'s exclusive write
// barrier (QueryExecutor::SubmitExclusive), blocking the connection
// thread, not the pool. An edge out of range or an insert offset beyond
// the edge's length is INVALID_ARGUMENT and changes nothing. Both
// pointers are borrowed and must outlive the server.
MutationHandler WorkloadMutationHandler(QueryExecutor* executor,
                                        Workload* workload);

// Appends one flight-ring record as a JSON object: the record format of
// the /debugz bundle's "flight" section and of msq_server --flight-out.
// Counters keep the FlightRecord field names (DESIGN.md §12).
void AppendFlightRecordJson(std::string* out, const obs::FlightRecord& record);

class MsqServer {
 public:
  // `executor` is borrowed and must outlive the server.
  MsqServer(QueryExecutor* executor, const ServerConfig& config);
  ~MsqServer();  // calls Shutdown() if still running

  MsqServer(const MsqServer&) = delete;
  MsqServer& operator=(const MsqServer&) = delete;

  // Binds, listens, and starts the acceptor thread.
  Status Start();

  // Graceful drain, idempotent: stop accepting, unblock idle connections,
  // let in-flight requests finish (their deadlines still truncate them),
  // join every connection thread, and quiesce the executor so telemetry
  // is stable for a final flush. Returns when fully drained.
  void Shutdown();

  std::uint16_t port() const { return port_; }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  const AdmissionController& admission() const { return admission_; }
  QueryExecutor& executor() const { return *executor_; }

  // Accounting snapshot as one JSON object (the GET /statz body).
  std::string StatzJson() const;

  // Readiness snapshot as one JSON object (the GET /healthz body):
  // status, draining, data_epoch, and the admission watermark occupancy.
  std::string HealthzJson() const;

  // The postmortem bundle as one JSON object (the GET /debugz body).
  // Everything a debugging session starts from, in one fetch: build
  // stamp, server config, data epoch, accounting + shard balance
  // (StatzJson), the flight ring, retained traces, every counter/gauge/
  // histogram snapshot, and the recent execution plans. msq_server also
  // writes this to disk on SIGUSR1.
  std::string DebugzJson() const;

  // The wide-event ring (GET /requestz). Stable to read after Shutdown.
  const obs::WideEventLog& wide_events() const { return wide_events_; }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void HandleConnection(Conn* conn);
  // One NDJSON line or HTTP POST body -> response body + HTTP status.
  // Query replies also carry the request's wide event; HandleConnection
  // finalizes its write/total stages after the socket write and appends it
  // to the ring.
  struct Reply {
    Reply() = default;
    // A reply without a wide event (`return {body, status};`).
    Reply(std::string body_in, int status)
        : body(std::move(body_in)), http_status(status) {}

    std::string body;
    int http_status = 200;
    obs::WideEvent event;
    bool has_event = false;
  };
  // `received_at` is the MonotonicSeconds() mark of frame arrival (the
  // wide event's epoch); `header_ctx` is the HTTP traceparent header
  // context (invalid for NDJSON, where the body field carries it).
  Reply HandleQuery(const std::string& text, double received_at,
                    const obs::TraceContext& header_ctx);
  // Runs one already-admitted mutation through the configured handler and
  // finishes its accounting (HandleQuery branches here after TryAdmit).
  Reply HandleMutation(Reply reply, const ServeRequest& request,
                       double cost);
  Reply HandleHttp(const std::string& request_line, FrameReader* reader,
                   double received_at, bool* close_connection);
  // Appends the reply's wide event (if any) after finalizing the
  // write-stage and total latency.
  void FinishWideEvent(Reply* reply, double write_seconds);
  // Joins finished connection threads (called from the acceptor between
  // accepts and from Shutdown for the stragglers).
  void ReapConnections(bool join_all);

  QueryExecutor* const executor_;
  const ServerConfig config_;
  obs::MetricsRegistry* const registry_;
  AdmissionController admission_;
  obs::Gauge* const connections_gauge_;
  obs::Counter* const conn_shed_;
  obs::Counter* const read_timeouts_;
  obs::Counter* const write_errors_;
  obs::Histogram* const queue_us_hist_;
  obs::Histogram* const wall_us_hist_;
  // True queue wait (accept -> execute start), split by outcome.
  obs::Histogram* const queue_wait_completed_;
  obs::Histogram* const queue_wait_truncated_;
  obs::Histogram* const queue_wait_failed_;
  obs::Counter* const mutations_applied_;
  obs::Counter* const mutations_failed_;
  obs::Gauge* const data_epoch_gauge_;
  obs::WideEventLog wide_events_;

  int listener_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::thread acceptor_;
  std::mutex conns_mu_;
  std::list<Conn> conns_;
  std::size_t open_connections_ = 0;
};

}  // namespace msq::serve

#endif  // MSQ_SERVE_SERVER_H_
