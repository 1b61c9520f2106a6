#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "obs/build_info.h"
#include "obs/export.h"

namespace msq::serve {

namespace {

const char* HttpReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string HttpResponse(int status, const std::string& content_type,
                         const std::string& body,
                         double retry_after_ms = 0.0) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    HttpReason(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  if (retry_after_ms > 0.0) {
    out += "Retry-After: " +
           std::to_string(static_cast<long>(
               std::ceil(retry_after_ms / 1000.0))) +
           "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

bool LooksLikeHttp(const std::string& line) {
  return line.rfind("GET ", 0) == 0 || line.rfind("POST ", 0) == 0 ||
         line.rfind("HEAD ", 0) == 0 || line.rfind("PUT ", 0) == 0 ||
         line.rfind("DELETE ", 0) == 0 || line.rfind("OPTIONS ", 0) == 0;
}

}  // namespace

MsqServer::MsqServer(QueryExecutor* executor, const ServerConfig& config)
    : executor_(executor),
      config_(config),
      registry_(config.registry != nullptr ? config.registry
                                           : &obs::GlobalMetrics()),
      admission_([&] {
        AdmissionConfig admission = config.admission;
        if (admission.registry == nullptr) admission.registry = registry_;
        return admission;
      }()),
      connections_gauge_(registry_->gauge(metric::kServeConnections)),
      conn_shed_(registry_->counter(metric::kServeConnShed)),
      read_timeouts_(registry_->counter(metric::kServeReadTimeouts)),
      write_errors_(registry_->counter(metric::kServeWriteErrors)),
      queue_us_hist_(registry_->histogram(metric::kServeQueueUsHist)),
      wall_us_hist_(registry_->histogram(metric::kServeWallUsHist)),
      queue_wait_completed_(
          registry_->histogram(metric::kServeQueueWaitCompletedUsHist)),
      queue_wait_truncated_(
          registry_->histogram(metric::kServeQueueWaitTruncatedUsHist)),
      queue_wait_failed_(
          registry_->histogram(metric::kServeQueueWaitFailedUsHist)),
      mutations_applied_(
          registry_->counter(metric::kServeMutationsApplied)),
      mutations_failed_(registry_->counter(metric::kServeMutationsFailed)),
      data_epoch_gauge_(registry_->gauge(metric::kServeDataEpoch)),
      wide_events_(config.wide_event_capacity) {
  MSQ_CHECK(executor_ != nullptr);
}

MsqServer::~MsqServer() { Shutdown(); }

Status MsqServer::Start() {
  MSQ_CHECK(!running_.load());
  IgnoreSigpipe();
  StatusOr<int> listener =
      ListenTcp(config_.host, config_.port, config_.backlog, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = listener.value();
  running_.store(true);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status();
}

void MsqServer::Shutdown() {
  if (!running_.exchange(false)) return;
  draining_.store(true, std::memory_order_relaxed);
  // Wake the blocked accept; the loop sees running_ == false and exits.
  ::shutdown(listener_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listener_);
  listener_ = -1;
  // Unblock idle connections (recv returns EOF). In-flight requests keep
  // their write half: responses still go out, deadlines still truncate.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
    }
  }
  ReapConnections(/*join_all=*/true);
  // Settle queued work and its completion telemetry so a post-drain
  // telemetry flush reads stable, fully-accounted numbers.
  executor_->Quiesce();
}

void MsqServer::AcceptLoop() {
  for (;;) {
    int fd;
    do {
      fd = ::accept(listener_, nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (!running_.load()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) continue;
    ReapConnections(/*join_all=*/false);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (open_connections_ >= config_.max_connections) {
      // Connection-level shed: one line that both a raw client and a
      // human can read, then close. Never queue sockets we cannot serve.
      conn_shed_->Inc();
      const std::string line =
          EncodeErrorResponse(
              "", StatusCode::kResourceExhausted,
              "connection limit reached",
              config_.admission.retry_after_base_ms) +
          "\n";
      (void)WriteAll(fd, line);
      ::close(fd);
      continue;
    }
    ++open_connections_;
    connections_gauge_->Update(static_cast<double>(open_connections_));
    conns_.emplace_back();
    Conn* conn = &conns_.back();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { HandleConnection(conn); });
  }
}

void MsqServer::ReapConnections(bool join_all) {
  std::list<Conn> to_join;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      auto next = std::next(it);
      if (join_all || it->done.load(std::memory_order_acquire)) {
        to_join.splice(to_join.end(), conns_, it);
      }
      it = next;
    }
  }
  for (Conn& conn : to_join) {
    if (conn.thread.joinable()) conn.thread.join();
  }
}

void MsqServer::HandleConnection(Conn* conn) {
  const int fd = conn->fd;
  (void)SetSocketTimeouts(fd, config_.read_timeout_seconds,
                          config_.write_timeout_seconds);
  FrameReader reader(fd, config_.max_request_bytes);
  for (;;) {
    StatusOr<std::string> line = reader.ReadLine();
    if (!line.ok()) {
      switch (line.status().code()) {
        case StatusCode::kNotFound:
          // Clean EOF between frames: the peer (or drain) closed us.
          break;
        case StatusCode::kDeadlineExceeded:
          // Idle connections close quietly; a peer stalled mid-frame is a
          // slow client — tell it, then close.
          read_timeouts_->Inc();
          if (reader.partial_frame()) {
            const std::string reply =
                EncodeErrorResponse("", StatusCode::kDeadlineExceeded,
                                    "timed out reading request frame") +
                "\n";
            if (!WriteAll(fd, reply).ok()) write_errors_->Inc();
          }
          break;
        case StatusCode::kResourceExhausted: {
          // Oversized frame: a full request was attempted, so it enters
          // the accounting as received+rejected before the close.
          admission_.CountReceived();
          admission_.CountRejected();
          const std::string reply =
              EncodeErrorResponse("", StatusCode::kResourceExhausted,
                                  line.status().message()) +
              "\n";
          if (!WriteAll(fd, reply).ok()) write_errors_->Inc();
          break;
        }
        default:
          break;  // reset / EOF mid-frame: nothing to say to a dead peer
      }
      break;
    }
    const double received_at = MonotonicSeconds();
    const std::string& text = line.value();
    if (LooksLikeHttp(text)) {
      bool close_connection = true;
      Reply reply = HandleHttp(text, &reader, received_at,
                               &close_connection);
      const double write_start = MonotonicSeconds();
      const bool write_ok = WriteAll(fd, reply.body).ok();
      if (!write_ok) write_errors_->Inc();
      FinishWideEvent(&reply, MonotonicSeconds() - write_start);
      if (close_connection) break;
      continue;
    }
    Reply reply = HandleQuery(text, received_at, obs::TraceContext{});
    reply.body += "\n";
    const double write_start = MonotonicSeconds();
    const bool write_ok = WriteAll(fd, reply.body).ok();
    if (!write_ok) write_errors_->Inc();
    FinishWideEvent(&reply, MonotonicSeconds() - write_start);
    if (!write_ok) break;
    if (draining_.load(std::memory_order_relaxed)) break;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    ::close(conn->fd);
    conn->fd = -1;
    MSQ_CHECK(open_connections_ > 0);
    --open_connections_;
    connections_gauge_->Update(static_cast<double>(open_connections_));
  }
  conn->done.store(true, std::memory_order_release);
}

MsqServer::Reply MsqServer::HandleQuery(const std::string& text,
                                        double received_at,
                                        const obs::TraceContext& header_ctx) {
  obs::ServingTelemetry& telemetry = executor_->telemetry();
  admission_.CountReceived();
  Reply reply;
  reply.has_event = telemetry.enabled();
  obs::WideEvent& event = reply.event;
  event.received_at_mono = received_at;
  const double parse_start = MonotonicSeconds();
  StatusOr<ServeRequest> parsed =
      ParseServeRequestText(std::string_view(text));
  event.parse_ms = (MonotonicSeconds() - parse_start) * 1e3;
  // Trace context priority: request body field, then HTTP header, then a
  // server mint with the head-sampling coin. Every request — even one
  // about to be rejected — gets an identity so its wide event is
  // correlatable.
  obs::TraceContext ctx =
      parsed.ok() && parsed.value().trace_context.valid()
          ? parsed.value().trace_context
          : header_ctx;
  if (!ctx.valid() && telemetry.enabled()) {
    ctx = obs::TraceContext::Mint(telemetry.HeadSample());
  }
  if (ctx.valid()) event.trace_id = ctx.TraceIdHex();
  event.sampled = ctx.sampled;
  if (!parsed.ok()) {
    admission_.CountRejected();
    event.outcome = "rejected";
    event.status_code = static_cast<std::int32_t>(parsed.status().code());
    reply.http_status = HttpStatusFor(parsed.status().code());
    event.http_status = reply.http_status;
    reply.body = EncodeErrorResponse("", parsed.status().code(),
                                     parsed.status().message());
    return reply;
  }
  const ServeRequest& request = parsed.value();
  event.request_id = request.id;
  // Mutations report under their op name — "update_edge" latency belongs
  // in a different bucket than any query algorithm.
  event.algorithm = request.op == ServeOp::kQuery
                        ? AlgorithmName(request.algorithm)
                        : std::string_view(ServeOpName(request.op));
  const double cost = EstimateCost(request);
  if (draining_.load(std::memory_order_relaxed)) {
    // Drain counts as shed, not failure: the request was well-formed and
    // a retry against a healthy replica would succeed.
    admission_.CountShed();
    event.outcome = "shed";
    event.status_code =
        static_cast<std::int32_t>(StatusCode::kResourceExhausted);
    event.http_status = 503;
    reply.http_status = 503;
    reply.body =
        EncodeErrorResponse(request.id, StatusCode::kResourceExhausted,
                            "server draining",
                            config_.admission.retry_after_base_ms);
    return reply;
  }
  double retry_after_ms = 0.0;
  if (!admission_.TryAdmit(cost, &retry_after_ms)) {
    event.outcome = "shed";
    event.status_code =
        static_cast<std::int32_t>(StatusCode::kResourceExhausted);
    event.http_status = 503;
    reply.http_status = 503;
    reply.body =
        EncodeErrorResponse(request.id, StatusCode::kResourceExhausted,
                            "admission queue full", retry_after_ms);
    return reply;
  }
  if (request.op != ServeOp::kQuery) {
    return HandleMutation(std::move(reply), request, cost);
  }
  QueryRequest query;
  query.algorithm = request.algorithm;
  query.spec.sources = request.sources;
  query.spec.lbc_source_index = request.lbc_source_index;
  query.spec.limits.max_page_accesses = request.page_budget;
  query.collect_plan = request.explain;
  query.trace_context = ctx;
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : config_.default_deadline_ms;
  const double admit_at = MonotonicSeconds();
  if (deadline_ms > 0.0) {
    query.spec.limits.deadline_at = admit_at + deadline_ms / 1e3;
  }
  SkylineResult result = executor_->Submit(std::move(query)).get();
  const double total_seconds = MonotonicSeconds() - admit_at;
  const double queue_seconds =
      std::max(0.0, total_seconds - result.stats.total_seconds);
  const RequestOutcome outcome = AdmissionController::Classify(result);
  admission_.Finish(outcome, cost);
  queue_us_hist_->Observe(
      static_cast<std::uint64_t>(queue_seconds * 1e6));
  wall_us_hist_->Observe(
      static_cast<std::uint64_t>(total_seconds * 1e6));
  // True queue wait — admission to execute-start on a worker, from the
  // executor's clock stamps — split by outcome. It starts at admit_at, not
  // at receipt, so it excludes parse_ms and the wide event's stages stay
  // disjoint parts of total_ms. Falls back to the derived figure if the
  // stamps are missing (disabled telemetry never clears them, so this is
  // belt-and-braces).
  const double queue_wait_seconds =
      result.exec_started_at > 0.0
          ? std::max(0.0, result.exec_started_at - admit_at)
          : queue_seconds;
  obs::Histogram* queue_wait_hist =
      outcome == RequestOutcome::kCompleted   ? queue_wait_completed_
      : outcome == RequestOutcome::kTruncated ? queue_wait_truncated_
                                              : queue_wait_failed_;
  queue_wait_hist->Observe(
      static_cast<std::uint64_t>(queue_wait_seconds * 1e6));
  event.queue_ms = queue_wait_seconds * 1e3;
  event.execute_ms =
      (result.exec_finished_at > result.exec_started_at
           ? result.exec_finished_at - result.exec_started_at
           : result.stats.total_seconds) *
      1e3;
  event.network_page_accesses = result.stats.network_page_accesses;
  event.index_page_accesses = result.stats.index_page_accesses;
  event.cache_hits = result.stats.counters.cache_hits();
  event.settled_nodes = result.stats.counters.settled_nodes;
  event.skyline_size = result.skyline.size();
  event.sequence = result.flight_sequence;
  event.status_code = static_cast<std::int32_t>(result.status.code());
  event.trace_retained =
      telemetry.enabled() && ctx.valid() &&
      telemetry.trace_store().Contains(ctx.trace_id_hi, ctx.trace_id_lo);
  if (event.trace_retained) {
    // Serve-level latency exemplar: the p99 bucket of the admitted-wall
    // histogram points at a /tracez-retrievable trace.
    telemetry.exemplars().Observe(
        metric::kServeWallUsHist,
        static_cast<std::uint64_t>(total_seconds * 1e6), event.trace_id);
  }
  const double serialize_start = MonotonicSeconds();
  if (outcome == RequestOutcome::kFailed) {
    event.outcome = "failed";
    reply.http_status = HttpStatusFor(result.status.code());
    event.http_status = reply.http_status;
    reply.body = EncodeErrorResponse(request.id, result.status.code(),
                                     result.status.message());
    event.serialize_ms = (MonotonicSeconds() - serialize_start) * 1e3;
    return reply;
  }
  const std::size_t returned =
      request.k > 0 ? std::min(request.k, result.skyline.size())
                    : result.skyline.size();
  event.returned = returned;
  event.outcome =
      outcome == RequestOutcome::kTruncated ? "truncated" : "completed";
  reply.http_status = 200;
  event.http_status = 200;
  reply.body =
      EncodeResultResponse(request, result, returned, queue_seconds * 1e3,
                           total_seconds * 1e3);
  event.serialize_ms = (MonotonicSeconds() - serialize_start) * 1e3;
  return reply;
}

MsqServer::Reply MsqServer::HandleMutation(Reply reply,
                                           const ServeRequest& request,
                                           double cost) {
  obs::WideEvent& event = reply.event;
  const double started_at = MonotonicSeconds();
  MutationResult result;
  if (config_.mutation_handler) {
    result = config_.mutation_handler(request);
  } else {
    result.status =
        Status::InvalidArgument("this server does not accept mutations");
  }
  const double wall_seconds = MonotonicSeconds() - started_at;
  // A mutation either applies or fails — there is no truncated prefix —
  // so the conservation identities hold with the same Finish() discipline
  // as queries.
  const RequestOutcome outcome = result.status.ok()
                                     ? RequestOutcome::kCompleted
                                     : RequestOutcome::kFailed;
  admission_.Finish(outcome, cost);
  wall_us_hist_->Observe(static_cast<std::uint64_t>(wall_seconds * 1e6));
  if (result.status.ok()) {
    mutations_applied_->Inc();
    data_epoch_gauge_->Update(static_cast<double>(result.data_epoch));
  } else {
    mutations_failed_->Inc();
  }
  // The exclusive-barrier drain happens inside the handler, so it counts
  // as execution here: mutation latency *is* dominated by waiting out the
  // in-flight queries.
  event.execute_ms = wall_seconds * 1e3;
  event.status_code = static_cast<std::int32_t>(result.status.code());
  const double serialize_start = MonotonicSeconds();
  if (outcome == RequestOutcome::kFailed) {
    event.outcome = "failed";
    reply.http_status = HttpStatusFor(result.status.code());
    event.http_status = reply.http_status;
    reply.body = EncodeErrorResponse(request.id, result.status.code(),
                                     result.status.message());
  } else {
    event.outcome = "completed";
    reply.http_status = 200;
    event.http_status = 200;
    reply.body =
        EncodeMutationResponse(request, result, wall_seconds * 1e3);
  }
  event.serialize_ms = (MonotonicSeconds() - serialize_start) * 1e3;
  return reply;
}

void MsqServer::FinishWideEvent(Reply* reply, double write_seconds) {
  if (!reply->has_event) return;
  obs::WideEvent& event = reply->event;
  event.write_ms = write_seconds * 1e3;
  if (event.received_at_mono > 0.0) {
    event.total_ms =
        (MonotonicSeconds() - event.received_at_mono) * 1e3;
  }
  wide_events_.Append(std::move(event));
  reply->has_event = false;
}

MsqServer::Reply MsqServer::HandleHttp(const std::string& request_line,
                                       FrameReader* reader,
                                       double received_at,
                                       bool* close_connection) {
  *close_connection = true;  // HTTP mode is one-shot; NDJSON persists
  const std::size_t method_end = request_line.find(' ');
  const std::size_t path_end = request_line.find(' ', method_end + 1);
  if (method_end == std::string::npos || path_end == std::string::npos ||
      request_line.compare(path_end + 1, 5, "HTTP/") != 0) {
    return {HttpResponse(400, "application/json",
                         EncodeErrorResponse(
                             "", StatusCode::kInvalidArgument,
                             "malformed HTTP request line")),
            400};
  }
  const std::string method = request_line.substr(0, method_end);
  const std::string path =
      request_line.substr(method_end + 1, path_end - method_end - 1);
  // Headers: bounded in count and (via FrameReader) per-line size. Only
  // Content-Length and (for POST /query) traceparent matter to this
  // server.
  std::size_t content_length = 0;
  std::string traceparent_header;
  for (int i = 0; i < 64; ++i) {
    StatusOr<std::string> header = reader->ReadLine();
    if (!header.ok()) {
      const int status =
          header.status().code() == StatusCode::kResourceExhausted ? 413
                                                                   : 408;
      return {HttpResponse(status, "application/json",
                           EncodeErrorResponse("", header.status().code(),
                                               header.status().message())),
              status};
    }
    const std::string& h = header.value();
    if (h.empty()) break;  // end of headers
    const std::size_t colon = h.find(':');
    if (colon == std::string::npos) continue;
    std::string name = h.substr(0, colon);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (name == "content-length") {
      std::size_t value_start = colon + 1;
      while (value_start < h.size() && h[value_start] == ' ') ++value_start;
      char* end = nullptr;
      const unsigned long long n =
          std::strtoull(h.c_str() + value_start, &end, 10);
      if (end == h.c_str() + value_start ||
          n > config_.max_request_bytes) {
        return {HttpResponse(413, "application/json",
                             EncodeErrorResponse(
                                 "", StatusCode::kResourceExhausted,
                                 "content-length exceeds limit")),
                413};
      }
      content_length = static_cast<std::size_t>(n);
    } else if (name == "traceparent") {
      std::size_t value_start = colon + 1;
      while (value_start < h.size() && h[value_start] == ' ') ++value_start;
      traceparent_header = h.substr(value_start);
    }
  }
  if (method == "GET" && path == "/metrics") {
    // Level-style gauges refresh on read: bring the shard-balance gauges
    // up to date before the registry is serialized.
    if (executor_->dataset().graph_buffer != nullptr) {
      executor_->dataset().graph_buffer->shard_balance();
    }
    if (executor_->dataset().index_buffer != nullptr) {
      executor_->dataset().index_buffer->shard_balance();
    }
    return {HttpResponse(200, "text/plain; version=0.0.4",
                         obs::PrometheusText(
                             *registry_,
                             &executor_->telemetry().exemplars())),
            200};
  }
  if (method == "GET" && path == "/healthz") {
    return {HttpResponse(200, "application/json", HealthzJson()), 200};
  }
  if (method == "GET" && path == "/explainz") {
    return {HttpResponse(200, "application/json",
                         obs::ExplainzJson(executor_->telemetry().plans())),
            200};
  }
  if (method == "GET" && path == "/debugz") {
    return {HttpResponse(200, "application/json", DebugzJson()), 200};
  }
  if (method == "GET" && path == "/statz") {
    return {HttpResponse(200, "application/json", StatzJson()), 200};
  }
  if (method == "GET" &&
      (path == "/tracez" || path.rfind("/tracez?", 0) == 0)) {
    const obs::TraceStore& store = executor_->telemetry().trace_store();
    const std::string needle = "trace_id=";
    const std::size_t query_start = path.find('?');
    std::string trace_id;
    if (query_start != std::string::npos) {
      const std::size_t id_start = path.find(needle, query_start);
      if (id_start != std::string::npos) {
        trace_id = path.substr(id_start + needle.size());
        const std::size_t amp = trace_id.find('&');
        if (amp != std::string::npos) trace_id.resize(amp);
      }
    }
    if (!trace_id.empty()) {
      std::optional<obs::RetainedTrace> trace = store.Find(trace_id);
      if (!trace.has_value()) {
        return {HttpResponse(404, "application/json",
                             EncodeErrorResponse(
                                 "", StatusCode::kNotFound,
                                 "no retained trace " + trace_id)),
                404};
      }
      return {HttpResponse(200, "application/json",
                           obs::RetainedTraceChromeJson(*trace)),
              200};
    }
    return {HttpResponse(200, "application/json", obs::TracezJson(store)),
            200};
  }
  if (method == "GET" && path == "/requestz") {
    return {HttpResponse(200, "application/json", wide_events_.Json()),
            200};
  }
  if (method == "POST" && path == "/query") {
    StatusOr<std::string> body = reader->ReadExact(content_length);
    if (!body.ok()) {
      const int status =
          body.status().code() == StatusCode::kResourceExhausted ? 413
                                                                 : 408;
      return {HttpResponse(status, "application/json",
                           EncodeErrorResponse("", body.status().code(),
                                               body.status().message())),
              status};
    }
    // A traceparent header is held to the same strict grammar as the body
    // field: malformed propagation is a client bug worth surfacing, not
    // something to silently re-mint over.
    obs::TraceContext header_ctx;
    if (!traceparent_header.empty()) {
      StatusOr<obs::TraceContext> ctx =
          obs::TraceContext::Parse(traceparent_header);
      if (!ctx.ok()) {
        admission_.CountReceived();
        admission_.CountRejected();
        return {HttpResponse(400, "application/json",
                             EncodeErrorResponse(
                                 "", StatusCode::kInvalidArgument,
                                 "traceparent header: " +
                                     ctx.status().message())),
                400};
      }
      header_ctx = ctx.value();
    }
    Reply reply = HandleQuery(body.value(), received_at, header_ctx);
    // Reuse the JSON body; lift the retry hint into the HTTP header.
    double retry_after_ms = 0.0;
    if (reply.http_status == 503) {
      retry_after_ms = config_.admission.retry_after_base_ms;
    }
    std::string http_body = HttpResponse(reply.http_status,
                                         "application/json", reply.body,
                                         retry_after_ms);
    reply.body = std::move(http_body);
    return reply;
  }
  if (path == "/metrics" || path == "/healthz" || path == "/statz" ||
      path == "/query" || path == "/tracez" || path == "/requestz" ||
      path == "/explainz" || path == "/debugz") {
    return {HttpResponse(405, "application/json",
                         EncodeErrorResponse(
                             "", StatusCode::kInvalidArgument,
                             "method not allowed for " + path)),
            405};
  }
  return {HttpResponse(404, "application/json",
                       EncodeErrorResponse("", StatusCode::kNotFound,
                                           "unknown path " + path)),
          404};
}

std::string MsqServer::StatzJson() const {
  std::string out = "{\"received\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.received()));
  out += ",\"rejected\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.rejected()));
  out += ",\"shed\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.shed()));
  out += ",\"admitted\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.admitted()));
  out += ",\"completed\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.completed()));
  out += ",\"truncated\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.truncated()));
  out += ",\"failed\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.failed()));
  out += ",\"pending\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.pending()));
  out += ",\"draining\":";
  out += draining_.load(std::memory_order_relaxed) ? "true" : "false";
  // Buffer-pool shard balance (storage/buffer_manager.h): the first place
  // to look when multi-core throughput stalls on a hot lock stripe.
  const auto append_pool = [&out](const char* name,
                                  const BufferManager* pool) {
    if (pool == nullptr) return;
    const ShardBalanceStats balance = pool->shard_balance();
    out += ",\"";
    out += name;
    out += "\":{\"shards\":";
    AppendJsonNumber(&out, static_cast<double>(balance.shard_count));
    out += ",\"resident_pages\":";
    AppendJsonNumber(&out, static_cast<double>(pool->resident_pages()));
    out += ",\"shard_occupancy_min\":";
    AppendJsonNumber(&out, static_cast<double>(balance.min_occupancy));
    out += ",\"shard_occupancy_max\":";
    AppendJsonNumber(&out, static_cast<double>(balance.max_occupancy));
    out += ",\"shard_occupancy_ratio\":";
    AppendJsonNumber(&out, balance.occupancy_ratio);
    out += ",\"shard_access_min\":";
    AppendJsonNumber(&out, static_cast<double>(balance.min_accesses));
    out += ",\"shard_access_max\":";
    AppendJsonNumber(&out, static_cast<double>(balance.max_accesses));
    out += ",\"shard_access_ratio\":";
    AppendJsonNumber(&out, balance.access_ratio);
    out += "}";
  };
  append_pool("network_buffer", executor_->dataset().graph_buffer);
  append_pool("index_buffer", executor_->dataset().index_buffer);
  out += "}";
  return out;
}

std::string MsqServer::HealthzJson() const {
  // "status":"ok" stays first and literal: liveness probes (and the CI
  // smoke) grep for it.
  std::string out = "{\"status\":\"ok\",\"draining\":";
  out += draining_.load(std::memory_order_relaxed) ? "true" : "false";
  out += ",\"data_epoch\":";
  AppendJsonNumber(&out, data_epoch_gauge_->value());
  out += ",\"admission\":{\"pending\":";
  AppendJsonNumber(&out, static_cast<double>(admission_.pending()));
  out += ",\"max_pending\":";
  AppendJsonNumber(&out,
                   static_cast<double>(config_.admission.max_pending));
  out += ",\"pending_cost\":";
  AppendJsonNumber(&out, admission_.pending_cost());
  out += ",\"max_pending_cost\":";
  AppendJsonNumber(&out, config_.admission.max_pending_cost);
  out += "}}";
  return out;
}

void AppendFlightRecordJson(std::string* out,
                            const obs::FlightRecord& record) {
  *out += "{\"sequence\":";
  AppendJsonNumber(out, static_cast<double>(record.sequence));
  *out += ",\"algo\":\"";
  *out += AlgorithmName(static_cast<Algorithm>(record.algorithm));
  *out += "\"";
  if (record.trace_id_hi != 0 || record.trace_id_lo != 0) {
    *out += ",\"trace_id\":\"" +
            obs::TraceContext{record.trace_id_hi, record.trace_id_lo}
                .TraceIdHex() +
            "\"";
  }
  *out += ",\"status_code\":";
  AppendJsonNumber(out, record.status_code);
  *out += ",\"truncated\":";
  *out += record.truncation != 0 ? "true" : "false";
  *out += ",\"sources\":";
  AppendJsonNumber(out, record.source_count);
  *out += ",\"skyline_size\":";
  AppendJsonNumber(out, static_cast<double>(record.skyline_size));
  *out += ",\"wall_ms\":";
  AppendJsonNumber(out, record.wall_seconds * 1e3);
  const obs::Counters& c = record.counters;
  *out += ",\"network_pages\":";
  AppendJsonNumber(out, static_cast<double>(c.network_accesses()));
  *out += ",\"index_pages\":";
  AppendJsonNumber(out, static_cast<double>(c.index_accesses()));
  *out += ",\"settled_nodes\":";
  AppendJsonNumber(out, static_cast<double>(c.settled_nodes));
  *out += ",\"dominance_tests\":";
  AppendJsonNumber(out, static_cast<double>(c.dominance_tests));
  *out += ",\"dominance_avoided\":";
  AppendJsonNumber(out, static_cast<double>(c.dominance_avoided));
  *out += ",\"bound_samples\":";
  AppendJsonNumber(out, static_cast<double>(c.bound_samples));
  *out += ",\"bound_pct_sum\":";
  AppendJsonNumber(out, static_cast<double>(c.bound_pct_sum));
  *out += ",\"cache_hits\":";
  AppendJsonNumber(out, static_cast<double>(c.cache_hits()));
  *out += ",\"cache_misses\":";
  AppendJsonNumber(out, static_cast<double>(c.cache_misses()));
  *out += "}";
}

namespace {

// MetricsJsonl emits one JSON object per line; the bundle wants them as
// one array value.
std::string JsonlToArray(const std::string& jsonl) {
  std::string out = "[";
  bool first = true;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    if (end > start) {
      if (!first) out += ",";
      first = false;
      out += "\n";
      out.append(jsonl, start, end - start);
    }
    start = end + 1;
  }
  out += "\n]";
  return out;
}

}  // namespace

std::string MsqServer::DebugzJson() const {
  // Refresh level-style gauges the same way GET /metrics does, so the
  // bundle's snapshot is current rather than last-scrape.
  if (executor_->dataset().graph_buffer != nullptr) {
    executor_->dataset().graph_buffer->shard_balance();
  }
  if (executor_->dataset().index_buffer != nullptr) {
    executor_->dataset().index_buffer->shard_balance();
  }
  obs::ServingTelemetry& telemetry = executor_->telemetry();
  std::string out = "{\"build\":";
  out += obs::BuildInfoJson();
  out += ",\n\"config\":{\"host\":";
  AppendJsonString(&out, config_.host);
  out += ",\"port\":";
  AppendJsonNumber(&out, port_);
  out += ",\"max_connections\":";
  AppendJsonNumber(&out, static_cast<double>(config_.max_connections));
  out += ",\"max_request_bytes\":";
  AppendJsonNumber(&out, static_cast<double>(config_.max_request_bytes));
  out += ",\"read_timeout_s\":";
  AppendJsonNumber(&out, config_.read_timeout_seconds);
  out += ",\"write_timeout_s\":";
  AppendJsonNumber(&out, config_.write_timeout_seconds);
  out += ",\"default_deadline_ms\":";
  AppendJsonNumber(&out, config_.default_deadline_ms);
  out += ",\"workers\":";
  AppendJsonNumber(&out, static_cast<double>(executor_->worker_count()));
  out += "}";
  out += ",\n\"healthz\":";
  out += HealthzJson();
  out += ",\n\"statz\":";
  out += StatzJson();
  const auto flight = telemetry.flight_recorder().Snapshot();
  out += ",\n\"flight\":{\"total\":";
  AppendJsonNumber(&out, static_cast<double>(flight.total));
  out += ",\"records\":[";
  bool first = true;
  for (const obs::FlightRecord& record : flight.records) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    AppendFlightRecordJson(&out, record);
  }
  out += "\n]}";
  out += ",\n\"traces\":";
  out += obs::TracezJson(telemetry.trace_store());
  out += ",\n\"requests\":";
  out += wide_events_.Json();
  out += ",\n\"metrics\":";
  out += JsonlToArray(obs::MetricsJsonl(*registry_));
  out += ",\n\"explain\":";
  out += obs::ExplainzJson(telemetry.plans());
  out += "}";
  return out;
}

MutationHandler WorkloadMutationHandler(QueryExecutor* executor,
                                        Workload* workload) {
  return [executor, workload](const ServeRequest& req) {
    MutationResult out;
    out.status = executor->SubmitExclusive([&]() -> Status {
      const bool names_edge = req.op == ServeOp::kUpdateEdge ||
                              req.op == ServeOp::kInsertObject;
      if (names_edge && req.edge >= workload->network().edge_count()) {
        return Status::InvalidArgument(
            "edge " + std::to_string(req.edge) + " out of range");
      }
      switch (req.op) {
        case ServeOp::kUpdateEdge: {
          StatusOr<Dist> applied =
              workload->UpdateEdgeWeight(req.edge, req.length);
          if (applied.ok()) out.applied_length = applied.value();
          return applied.status();
        }
        case ServeOp::kInsertObject: {
          if (req.offset > workload->network().EdgeAt(req.edge).length) {
            return Status::InvalidArgument("offset beyond edge length");
          }
          StatusOr<ObjectId> id =
              workload->InsertObject(Location{req.edge, req.offset});
          if (id.ok()) out.object = id.value();
          return id.status();
        }
        case ServeOp::kDeleteObject: {
          StatusOr<bool> removed = workload->DeleteObject(req.object);
          if (removed.ok()) out.removed = removed.value();
          return removed.status();
        }
        case ServeOp::kQuery:
          break;
      }
      return Status::InvalidArgument("not a mutation");
    }).get();
    out.data_epoch = workload->dataset().graph_pager->data_epoch();
    return out;
  };
}

}  // namespace msq::serve
