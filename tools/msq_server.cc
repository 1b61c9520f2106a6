// msq_server — the serving front door binary (serve/server.h).
//
// Builds a workload (the paper's CA/AU/NA presets), starts a QueryExecutor
// worker pool with always-on telemetry and an optional cross-query cache,
// and serves skyline queries over TCP: NDJSON persistent connections and
// minimal HTTP (POST /query, GET /metrics|/healthz|/statz) on one port.
//
// Overload behavior: admission watermarks shed with RESOURCE_EXHAUSTED +
// Retry-After; client deadlines propagate into QueryLimits so queue wait
// degrades results to truncated prefixes instead of late full answers.
//
// SIGTERM/SIGINT triggers graceful drain: stop accepting, finish or
// truncate in-flight queries, then flush telemetry (optional --prom-out /
// --flight-out snapshots) and exit 0. A second signal aborts.
//
// SIGUSR1 writes the /debugz postmortem bundle to --debug-out (default
// msq_debugz.json) without disturbing serving — the "grab everything
// before the operator restarts it" hook.
//
// Usage:
//   msq_server [--port N] [--network CA|AU|NA] [--scale F] [--density F]
//              [--workers N] [--cache-mb N] [--seed N]
//              [--max-pending N] [--max-pending-cost F]
//              [--max-connections N] [--max-request-bytes N]
//              [--read-timeout-s F] [--write-timeout-s F]
//              [--default-deadline-ms F]
//              [--fault-transient F] [--fault-persistent F]
//              [--fault-corrupt F] [--fault-write F]
//              [--slow-wall-ms F] [--slow-pages N]
//              [--head-sample-every N]
//              [--duration-s F] [--prom-out PATH] [--flight-out PATH]
//              [--wide-out PATH] [--trace-out PATH] [--debug-out PATH]
//
// --port 0 (default) binds an ephemeral port; the chosen port is printed
// as "listening on http://HOST:PORT" for scripts to parse. --duration-s
// self-drains after the given wall time (smoke tests). The --fault-*
// flags arm seeded storage-fault injection on both page stores — the
// chaos configuration bench_soak drives.
//
// Tracing: --head-sample-every N head-samples every Nth request (detail
// spans + guaranteed retention); --slow-wall-ms/--slow-pages set the tail
// thresholds. At drain, --wide-out dumps the wide-event ring as JSONL and
// --trace-out dumps every retained trace's Chrome-trace export as one
// JSON document ({"traces":[{"trace_id":...,"events":[...]}]}).
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "serve/server.h"

using namespace msq;

namespace {

struct Options {
  int port = 0;
  NetworkClass network = NetworkClass::kCA;
  double scale = 0.2;
  double density = 0.5;
  std::size_t workers = 2;
  std::size_t cache_mb = 0;
  std::uint64_t seed = 12;
  serve::ServerConfig server;
  double fault_transient = 0.0;
  double fault_persistent = 0.0;
  double fault_corrupt = 0.0;
  double fault_write = 0.0;
  double duration_s = 0.0;
  std::string prom_out;
  std::string flight_out;
  std::string wide_out;
  std::string trace_out;
  std::string debug_out = "msq_debugz.json";
  double slow_wall_ms = 0.0;
  std::size_t slow_pages = 0;
  std::size_t head_sample_every = 0;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--network CA|AU|NA] [--scale F] [--density F]\n"
      "          [--workers N] [--cache-mb N] [--seed N]\n"
      "          [--max-pending N] [--max-pending-cost F]\n"
      "          [--max-connections N] [--max-request-bytes N]\n"
      "          [--read-timeout-s F] [--write-timeout-s F]\n"
      "          [--default-deadline-ms F]\n"
      "          [--fault-transient F] [--fault-persistent F]\n"
      "          [--fault-corrupt F] [--fault-write F]\n"
      "          [--slow-wall-ms F] [--slow-pages N]\n"
      "          [--head-sample-every N]\n"
      "          [--duration-s F] [--prom-out PATH] [--flight-out PATH]\n"
      "          [--wide-out PATH] [--trace-out PATH] [--debug-out PATH]\n",
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
    auto next_double = [&](double* out) {
      if ((v = value()) == nullptr) return false;
      *out = std::atof(v);
      return true;
    };
    auto next_size = [&](std::size_t* out) {
      if ((v = value()) == nullptr || std::atoll(v) < 0) return false;
      *out = static_cast<std::size_t>(std::atoll(v));
      return true;
    };
    if (std::strcmp(arg, "--port") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->port = std::atoi(v);
      if (opts->port < 0 || opts->port > 65535) return false;
    } else if (std::strcmp(arg, "--network") == 0) {
      if ((v = value()) == nullptr || !ParseNetwork(v, &opts->network)) {
        return false;
      }
    } else if (std::strcmp(arg, "--scale") == 0) {
      if (!next_double(&opts->scale) || opts->scale <= 0.0) return false;
    } else if (std::strcmp(arg, "--density") == 0) {
      if (!next_double(&opts->density) || opts->density <= 0.0) return false;
    } else if (std::strcmp(arg, "--workers") == 0) {
      if (!next_size(&opts->workers) || opts->workers == 0) return false;
    } else if (std::strcmp(arg, "--cache-mb") == 0) {
      if (!next_size(&opts->cache_mb)) return false;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--max-pending") == 0) {
      if (!next_size(&opts->server.admission.max_pending) ||
          opts->server.admission.max_pending == 0) {
        return false;
      }
    } else if (std::strcmp(arg, "--max-pending-cost") == 0) {
      if (!next_double(&opts->server.admission.max_pending_cost) ||
          opts->server.admission.max_pending_cost <= 0.0) {
        return false;
      }
    } else if (std::strcmp(arg, "--max-connections") == 0) {
      if (!next_size(&opts->server.max_connections) ||
          opts->server.max_connections == 0) {
        return false;
      }
    } else if (std::strcmp(arg, "--max-request-bytes") == 0) {
      if (!next_size(&opts->server.max_request_bytes) ||
          opts->server.max_request_bytes == 0) {
        return false;
      }
    } else if (std::strcmp(arg, "--read-timeout-s") == 0) {
      if (!next_double(&opts->server.read_timeout_seconds)) return false;
    } else if (std::strcmp(arg, "--write-timeout-s") == 0) {
      if (!next_double(&opts->server.write_timeout_seconds)) return false;
    } else if (std::strcmp(arg, "--default-deadline-ms") == 0) {
      if (!next_double(&opts->server.default_deadline_ms)) return false;
    } else if (std::strcmp(arg, "--fault-transient") == 0) {
      if (!next_double(&opts->fault_transient)) return false;
    } else if (std::strcmp(arg, "--fault-persistent") == 0) {
      if (!next_double(&opts->fault_persistent)) return false;
    } else if (std::strcmp(arg, "--fault-corrupt") == 0) {
      if (!next_double(&opts->fault_corrupt)) return false;
    } else if (std::strcmp(arg, "--fault-write") == 0) {
      if (!next_double(&opts->fault_write)) return false;
    } else if (std::strcmp(arg, "--duration-s") == 0) {
      if (!next_double(&opts->duration_s)) return false;
    } else if (std::strcmp(arg, "--prom-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->prom_out = v;
    } else if (std::strcmp(arg, "--flight-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->flight_out = v;
    } else if (std::strcmp(arg, "--wide-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->wide_out = v;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->trace_out = v;
    } else if (std::strcmp(arg, "--debug-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->debug_out = v;
    } else if (std::strcmp(arg, "--slow-wall-ms") == 0) {
      if (!next_double(&opts->slow_wall_ms) || opts->slow_wall_ms < 0.0) {
        return false;
      }
    } else if (std::strcmp(arg, "--slow-pages") == 0) {
      if (!next_size(&opts->slow_pages)) return false;
    } else if (std::strcmp(arg, "--head-sample-every") == 0) {
      if (!next_size(&opts->head_sample_every)) return false;
    } else {
      return false;
    }
  }
  return true;
}

// Signal-safe drain trigger: the handler writes one byte into a pipe the
// main thread blocks on. A second signal hard-exits (stuck drain escape
// hatch).
int g_signal_pipe[2] = {-1, -1};
volatile sig_atomic_t g_signal_count = 0;

void OnSignal(int) {
  g_signal_count = g_signal_count + 1;
  if (g_signal_count > 1) _exit(130);
  const char byte = 1;
  (void)!write(g_signal_pipe[1], &byte, 1);
}

// SIGUSR1: request a debugz dump. Counted separately from the drain
// signals (a dump must never escalate to the hard-exit escape hatch);
// the pipe byte distinguishes dump (2) from drain (1).
volatile sig_atomic_t g_debug_requests = 0;

void OnDebugSignal(int) {
  g_debug_requests = g_debug_requests + 1;
  const char byte = 2;
  (void)!write(g_signal_pipe[1], &byte, 1);
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

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage(argv[0]);
    return 2;
  }

  WorkloadConfig config;
  config.network =
      PaperNetworkConfig(opts.network, opts.scale, /*seed=*/opts.seed);
  config.object_density = opts.density;
  const bool faults = opts.fault_transient > 0.0 ||
                      opts.fault_persistent > 0.0 ||
                      opts.fault_corrupt > 0.0 || opts.fault_write > 0.0;
  if (faults) {
    FaultInjectionConfig inject;
    inject.seed = opts.seed + 1;
    inject.transient_read_rate = opts.fault_transient;
    inject.persistent_read_rate = opts.fault_persistent;
    inject.corrupt_read_rate = opts.fault_corrupt;
    inject.write_error_rate = opts.fault_write;
    config.fault_injection = inject;
  }
  Workload workload(config);
  if (faults) {
    workload.graph_faults()->Arm();
    workload.index_faults()->Arm();
  }

  obs::TelemetryConfig telemetry;
  telemetry.slow_wall_seconds = opts.slow_wall_ms / 1e3;
  telemetry.slow_page_accesses = opts.slow_pages;
  telemetry.head_sample_every = opts.head_sample_every;
  std::unique_ptr<QueryExecutor> executor;
  if (opts.cache_mb > 0) {
    QueryCacheConfig cache;
    cache.max_bytes = opts.cache_mb * (1u << 20);
    executor = std::make_unique<QueryExecutor>(workload.dataset(),
                                               opts.workers, cache,
                                               telemetry);
  } else {
    executor = std::make_unique<QueryExecutor>(workload.dataset(),
                                               opts.workers, telemetry);
  }

  opts.server.mutation_handler =
      serve::WorkloadMutationHandler(executor.get(), &workload);

  opts.server.port = static_cast<std::uint16_t>(opts.port);
  serve::MsqServer server(executor.get(), opts.server);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "msq_server: %s\n", started.ToString().c_str());
    return 1;
  }

  const obs::BuildInfo& build = obs::GetBuildInfo();
  std::printf("msq_server: %s scale %.2f density %.2f, %zu workers%s%s "
              "(build %s)\n",
              NetworkClassName(opts.network).c_str(), opts.scale,
              opts.density, opts.workers,
              opts.cache_mb > 0 ? ", cache on" : "",
              faults ? ", storage faults armed" : "",
              std::string(build.git_sha).c_str());
  std::printf("listening on http://%s:%u\n", opts.server.host.c_str(),
              server.port());
  std::fflush(stdout);

  if (pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGUSR1, OnDebugSignal);

  // Drains pending SIGUSR1 requests: one bundle per signal, written off
  // the signal handler on this (the main) thread.
  int debug_dumps_written = 0;
  auto write_debug_dumps = [&] {
    while (debug_dumps_written < g_debug_requests) {
      ++debug_dumps_written;
      if (WriteFile(opts.debug_out, server.DebugzJson() + "\n")) {
        std::printf("debugz bundle written to %s\n",
                    opts.debug_out.c_str());
        std::fflush(stdout);
      }
    }
  };

  if (opts.duration_s > 0.0) {
    // Smoke mode: serve for the given wall time, then drain.
    const double until = MonotonicSeconds() + opts.duration_s;
    while (MonotonicSeconds() < until && g_signal_count == 0) {
      write_debug_dumps();
      usleep(50 * 1000);
    }
  } else {
    for (;;) {
      char byte = 0;
      const ssize_t n = read(g_signal_pipe[0], &byte, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n > 0 && byte == 2) {
        write_debug_dumps();
        continue;
      }
      break;  // drain signal (or pipe gone): fall through to shutdown
    }
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  server.Shutdown();

  const serve::AdmissionController& admission = server.admission();
  std::printf("drained: received %llu = rejected %llu + shed %llu + "
              "completed %llu + truncated %llu + failed %llu\n",
              (unsigned long long)admission.received(),
              (unsigned long long)admission.rejected(),
              (unsigned long long)admission.shed(),
              (unsigned long long)admission.completed(),
              (unsigned long long)admission.truncated(),
              (unsigned long long)admission.failed());
  const std::string violation = admission.CheckConservation();
  if (!violation.empty()) {
    std::fprintf(stderr, "msq_server: accounting violation: %s\n",
                 violation.c_str());
    return 1;
  }

  obs::MetricsRegistry& registry = *executor->telemetry().registry();
  if (!opts.prom_out.empty() &&
      !WriteFile(opts.prom_out,
                 obs::PrometheusText(registry,
                                     &executor->telemetry().exemplars()))) {
    return 1;
  }
  if (!opts.wide_out.empty() &&
      !WriteFile(opts.wide_out, server.wide_events().Jsonl())) {
    return 1;
  }
  if (!opts.trace_out.empty() &&
      !WriteFile(opts.trace_out, obs::RetainedTraceDumpJson(
                                     executor->telemetry().trace_store()))) {
    return 1;
  }
  if (!opts.flight_out.empty()) {
    // Flight dump: one JSON array of records, one record per line (the
    // array form diffs well in CI artifacts).
    // Records are written as the /debugz bundle writes them.
    std::string out = "[\n";
    const std::vector<obs::FlightRecord> flight =
        executor->telemetry().flight_recorder().Snapshot().records;
    for (std::size_t i = 0; i < flight.size(); ++i) {
      serve::AppendFlightRecordJson(&out, flight[i]);
      out += i + 1 < flight.size() ? ",\n" : "\n";
    }
    out += "]\n";
    if (!WriteFile(opts.flight_out, out)) return 1;
  }
  return 0;
}
