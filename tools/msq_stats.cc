// Serving-telemetry driver: runs a mixed CE/EDC/LBC workload through the
// concurrent QueryExecutor with always-on telemetry, then dumps — or
// serves over HTTP — the resulting snapshots: Prometheus text exposition
// of the whole metrics registry (histograms included), the metrics JSONL,
// the flight-recorder ring, and any auto-captured slow-query profiles.
//
// Usage:
//   msq_stats [--network CA|AU|NA] [--scale F] [--density F] [--sources N]
//             [--batch N] [--workers N] [--repeat N] [--seed N]
//             [--slow-wall-ms F] [--slow-pages N] [--head-sample-every N]
//             [--prom-out PATH] [--jsonl-out PATH] [--flight-out PATH]
//             [--serve PORT] [--max-requests N]
//
// --serve binds 127.0.0.1:PORT and serves GET /metrics (Prometheus
// snapshot with retained-trace exemplars), GET /tracez (tail-retained
// traces; ?trace_id= for one Chrome-trace export), and GET /requestz
// (the flight-recorder ring as JSON — executor-level request log; any
// other path also answers with the Prometheus snapshot for backward
// compatibility). --max-requests bounds the loop for smoke tests, 0
// serves until killed.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/skyline_query.h"
#include "serve/socket.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

using namespace msq;

namespace {

struct Options {
  NetworkClass network = NetworkClass::kCA;
  double scale = 0.2;
  double density = 0.5;
  std::size_t sources = 4;
  std::size_t batch = 24;
  std::size_t workers = 2;
  std::size_t repeat = 1;
  std::uint64_t seed = 1;
  double slow_wall_ms = 0.0;
  std::uint64_t slow_pages = 0;
  std::uint64_t head_sample_every = 0;
  std::string prom_out;
  std::string jsonl_out;
  std::string flight_out;
  int serve_port = -1;
  std::size_t max_requests = 0;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--network CA|AU|NA] [--scale F] [--density F]\n"
      "          [--sources N] [--batch N] [--workers N] [--repeat N]\n"
      "          [--seed N] [--slow-wall-ms F] [--slow-pages N]\n"
      "          [--head-sample-every N]\n"
      "          [--prom-out PATH] [--jsonl-out PATH] [--flight-out PATH]\n"
      "          [--serve PORT] [--max-requests N]\n",
      argv0);
}

bool ParseNetwork(const char* s, NetworkClass* out) {
  if (std::strcmp(s, "CA") == 0) {
    *out = NetworkClass::kCA;
  } else if (std::strcmp(s, "AU") == 0) {
    *out = NetworkClass::kAU;
  } else if (std::strcmp(s, "NA") == 0) {
    *out = NetworkClass::kNA;
  } else {
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--network") == 0) {
      if ((v = value()) == nullptr || !ParseNetwork(v, &opts->network)) {
        return false;
      }
    } else if (std::strcmp(arg, "--scale") == 0) {
      if ((v = value()) == nullptr || (opts->scale = std::atof(v)) <= 0.0) {
        return false;
      }
    } else if (std::strcmp(arg, "--density") == 0) {
      if ((v = value()) == nullptr ||
          (opts->density = std::atof(v)) <= 0.0) {
        return false;
      }
    } else if (std::strcmp(arg, "--sources") == 0) {
      if ((v = value()) == nullptr || std::atol(v) <= 0) return false;
      opts->sources = static_cast<std::size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--batch") == 0) {
      if ((v = value()) == nullptr || std::atol(v) <= 0) return false;
      opts->batch = static_cast<std::size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--workers") == 0) {
      if ((v = value()) == nullptr || std::atol(v) <= 0) return false;
      opts->workers = static_cast<std::size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--repeat") == 0) {
      if ((v = value()) == nullptr || std::atol(v) <= 0) return false;
      opts->repeat = static_cast<std::size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--slow-wall-ms") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->slow_wall_ms = std::atof(v);
    } else if (std::strcmp(arg, "--slow-pages") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->slow_pages =
          static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--head-sample-every") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->head_sample_every =
          static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--prom-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->prom_out = v;
    } else if (std::strcmp(arg, "--jsonl-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->jsonl_out = v;
    } else if (std::strcmp(arg, "--flight-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->flight_out = v;
    } else if (std::strcmp(arg, "--serve") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->serve_port = std::atoi(v);
      if (opts->serve_port <= 0 || opts->serve_port > 65535) return false;
    } else if (std::strcmp(arg, "--max-requests") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->max_requests = static_cast<std::size_t>(std::atol(v));
    } else {
      return false;
    }
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

std::string FlightJson(const std::vector<obs::FlightRecord>& records) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::FlightRecord& r = records[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"sequence\":%" PRIu64 ",\"spec_digest\":\"%016" PRIx64
        "\",\"trace_id\":\"%016" PRIx64 "%016" PRIx64
        "\",\"algorithm\":\"%s\",\"status_code\":%d,\"truncation\":%u,"
        "\"source_count\":%u,\"skyline_size\":%" PRIu64
        ",\"wall_seconds\":%.6f,\"network_accesses\":%" PRIu64
        ",\"network_pages\":%" PRIu64 ",\"index_accesses\":%" PRIu64
        ",\"settled_nodes\":%" PRIu64 ",\"dominance_tests\":%" PRIu64
        ",\"cache_hits\":%" PRIu64 "}",
        r.sequence, r.spec_digest, r.trace_id_hi, r.trace_id_lo,
        std::string(AlgorithmName(static_cast<Algorithm>(r.algorithm)))
            .c_str(),
        r.status_code, r.truncation, r.source_count, r.skyline_size,
        r.wall_seconds, r.counters.network_accesses(),
        r.counters.network_misses, r.counters.index_accesses(),
        r.counters.settled_nodes, r.counters.dominance_tests,
        r.counters.cache_hits());
    out += buf;
    out += i + 1 < records.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

// Minimal scrape endpoint: answers every request on 127.0.0.1:`port` with
// the current Prometheus snapshot. Single-threaded accept loop; good
// enough for a scraper or `curl`, not a general web server — but robust
// against hostile peers via the serve/socket helpers: SIGPIPE ignored,
// partial writes and EINTR retried, reads bounded in bytes and time so a
// stalled or garbage-streaming client cannot wedge the loop.
int ServeMetrics(obs::MetricsRegistry& registry,
                 const obs::ServingTelemetry& telemetry, int port,
                 std::size_t max_requests) {
  serve::IgnoreSigpipe();
  std::uint16_t bound_port = 0;
  StatusOr<int> listener = serve::ListenTcp(
      "127.0.0.1", static_cast<std::uint16_t>(port), /*backlog=*/8,
      &bound_port);
  if (!listener.ok()) {
    std::fprintf(stderr, "msq_stats: %s\n",
                 listener.status().ToString().c_str());
    return 1;
  }
  std::printf("serving Prometheus metrics on http://127.0.0.1:%u/metrics\n",
              bound_port);
  std::fflush(stdout);
  for (std::size_t served = 0;
       max_requests == 0 || served < max_requests; ++served) {
    int conn = -1;
    do {
      conn = ::accept(listener.value(), nullptr, nullptr);
    } while (conn < 0 && errno == EINTR);
    if (conn < 0) continue;
    // A scrape client has 5 s to present its request line and 5 s of
    // cumulative stall budget to drain the snapshot.
    (void)serve::SetSocketTimeouts(conn, /*recv_seconds=*/5.0,
                                   /*send_seconds=*/5.0);
    serve::FrameReader reader(conn, /*max_frame_bytes=*/4096);
    const StatusOr<std::string> request = reader.ReadLine();
    if (!request.ok()) {  // stalled, reset, or oversized request line
      ::close(conn);
      continue;
    }
    // Route on the request path; anything unrecognized answers with the
    // Prometheus snapshot (the pre-introspection behavior).
    std::string path;
    {
      const std::string& line = request.value();
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string::npos ? sp1 : line.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }
    std::string body;
    std::string content_type = "text/plain; version=0.0.4";
    int status = 200;
    if (path == "/tracez" || path.rfind("/tracez?", 0) == 0) {
      content_type = "application/json";
      const std::string needle = "trace_id=";
      const std::size_t id_start = path.find(needle);
      if (id_start != std::string::npos) {
        std::string trace_id = path.substr(id_start + needle.size());
        const std::size_t amp = trace_id.find('&');
        if (amp != std::string::npos) trace_id.resize(amp);
        std::optional<obs::RetainedTrace> trace =
            telemetry.trace_store().Find(trace_id);
        if (trace.has_value()) {
          body = obs::RetainedTraceChromeJson(*trace);
        } else {
          status = 404;
          body = "{\"error\":\"no retained trace " + trace_id + "\"}";
        }
      } else {
        body = obs::TracezJson(telemetry.trace_store());
      }
    } else if (path == "/requestz") {
      // Executor-level request log: the flight-recorder ring (msq_stats
      // has no serving layer, so no wide events — this is the closest
      // per-request view it owns).
      content_type = "application/json";
      body = FlightJson(telemetry.flight_recorder().Snapshot());
    } else {
      body = obs::PrometheusText(registry, &telemetry.exemplars());
    }
    char header[160];
    const int n = std::snprintf(
        header, sizeof(header),
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
        "Content-Length: %zu\r\nConnection: close\r\n\r\n",
        status, status == 200 ? "OK" : "Not Found", content_type.c_str(),
        body.size());
    if (serve::WriteAll(conn, header, static_cast<std::size_t>(n)).ok()) {
      (void)serve::WriteAll(conn, body);  // peer may vanish mid-body
    }
    ::close(conn);
  }
  ::close(listener.value());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage(argv[0]);
    return 2;
  }

  WorkloadConfig config;
  config.network = PaperNetworkConfig(opts.network, opts.scale, /*seed=*/12);
  config.object_density = opts.density;
  Workload workload(config);

  obs::TelemetryConfig telemetry;
  telemetry.slow_wall_seconds = opts.slow_wall_ms / 1e3;
  telemetry.slow_page_accesses = opts.slow_pages;
  telemetry.head_sample_every = opts.head_sample_every;
  QueryExecutor executor(workload.dataset(), opts.workers, telemetry);

  constexpr Algorithm kMix[] = {Algorithm::kCe, Algorithm::kEdc,
                                Algorithm::kLbc};
  std::vector<QueryRequest> requests;
  requests.reserve(opts.batch);
  for (std::size_t i = 0; i < opts.batch; ++i) {
    QueryRequest request;
    request.algorithm = kMix[i % std::size(kMix)];
    request.spec =
        workload.SampleQuery(opts.sources, opts.seed + 100 + i / 3);
    requests.push_back(request);
  }

  const obs::BuildInfo& build = obs::GetBuildInfo();
  std::printf("msq_stats: %s scale %.2f density %.2f |Q|=%zu — batch %zu x "
              "%zu, %zu workers (build %s)\n",
              NetworkClassName(opts.network).c_str(), opts.scale,
              opts.density, opts.sources, opts.batch, opts.repeat,
              opts.workers, std::string(build.git_sha).c_str());

  std::size_t failures = 0;
  const double start = MonotonicSeconds();
  for (std::size_t r = 0; r < opts.repeat; ++r) {
    for (const SkylineResult& result : executor.RunBatch(requests)) {
      if (!result.status.ok()) ++failures;
    }
  }
  const double wall = MonotonicSeconds() - start;
  // Slow-query captures finish after the batch futures resolve; settle the
  // workers before reading any telemetry.
  executor.Quiesce();
  const std::size_t total = opts.batch * opts.repeat;
  std::printf("%zu queries in %.3f s (%.1f QPS), %zu failed\n\n", total,
              wall, static_cast<double>(total) / wall, failures);

  obs::ServingTelemetry& telem = executor.telemetry();
  obs::MetricsRegistry& registry = *telem.registry();

  // Per-algorithm latency summary straight from the histograms.
  std::printf("%-10s %10s %10s %10s %10s\n", "algo", "count", "p50(ms)",
              "p99(ms)", "mean(ms)");
  registry.ForEachHistogram([](const std::string& name,
                               const obs::Histogram& h) {
    const std::string suffix = std::string(".") + obs::metric::kLatencyUsHist;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      return;
    }
    // exec.<algo>.latency_us_hist -> <algo>
    std::string algo = name.substr(0, name.size() - suffix.size());
    const std::size_t dot = algo.rfind('.');
    if (dot != std::string::npos) algo = algo.substr(dot + 1);
    const obs::Histogram::Snapshot s = h.TakeSnapshot();
    if (s.count == 0) return;
    std::printf("%-10s %10" PRIu64 " %10.2f %10.2f %10.2f\n", algo.c_str(),
                s.count, s.Quantile(0.5) / 1e3, s.Quantile(0.99) / 1e3,
                static_cast<double>(s.sum) /
                    static_cast<double>(s.count) / 1e3);
  });

  const std::vector<obs::FlightRecord> flight =
      telem.flight_recorder().Snapshot();
  std::printf("\nflight recorder: %" PRIu64
              " recorded, %zu retained (capacity %zu)\n",
              telem.flight_recorder().total_recorded(), flight.size(),
              telem.flight_recorder().capacity());

  const std::vector<obs::SlowQueryRecord> slow = telem.SlowQueries();
  if (!slow.empty()) {
    std::printf("\n%zu slow queries auto-captured:\n", slow.size());
    for (const obs::SlowQueryRecord& record : slow) {
      std::printf(
          "-- seq %" PRIu64 " %s digest %016" PRIx64
          " wall %.2f ms (recapture %.2f ms) --\n",
          record.summary.sequence,
          std::string(AlgorithmName(
                          static_cast<Algorithm>(record.summary.algorithm)))
              .c_str(),
          record.summary.spec_digest, record.summary.wall_seconds * 1e3,
          record.recapture_wall_seconds * 1e3);
      std::fputs(obs::ProfileReport(record.profile).c_str(), stdout);
    }
  }

  const std::vector<obs::RetainedTrace> retained =
      telem.trace_store().Snapshot();
  if (!retained.empty()) {
    std::printf("\n%zu traces tail-retained (of %" PRIu64 " total):\n",
                retained.size(), telem.trace_store().retained_total());
    for (const obs::RetainedTrace& trace : retained) {
      std::printf("  %s %s reason=%s wall %.2f ms\n",
                  trace.TraceIdHex().c_str(), trace.algorithm.c_str(),
                  std::string(obs::RetainReasonName(trace.reason)).c_str(),
                  trace.wall_seconds * 1e3);
    }
  }

  if (!opts.prom_out.empty() &&
      !WriteFile(opts.prom_out,
                 obs::PrometheusText(registry, &telem.exemplars()))) {
    return 1;
  }
  if (!opts.jsonl_out.empty() &&
      !WriteFile(opts.jsonl_out, obs::MetricsJsonl(registry))) {
    return 1;
  }
  if (!opts.flight_out.empty() &&
      !WriteFile(opts.flight_out, FlightJson(flight))) {
    return 1;
  }

  if (opts.serve_port > 0) {
    return ServeMetrics(registry, telem, opts.serve_port,
                        opts.max_requests);
  }
  return failures == 0 ? 0 : 1;
}
