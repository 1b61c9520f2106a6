// Chaos/soak harness for the serving front door (src/serve/).
//
// Runs an in-process MsqServer over a fault-injected workload and drives
// it through real loopback TCP connections — so one process covers server,
// executor, storage, and client framing end to end, and a sanitizer build
// (ASan/TSan) sees every byte of it. The drive plan:
//
//   1. Calibrate: closed-loop valid traffic measures capacity QPS.
//   2. Phases at 1x / 2x / 4x of capacity: paced mixed traffic (CE/EDC/LBC
//      + occasional naive, a slice with tiny page budgets, every request
//      carrying a deadline) while a chaos thread interleaves malformed
//      frames, oversized frames, mid-request disconnects, and stalled
//      readers, with storage faults armed the whole time.
//   3. Graceful drain, then the gates:
//        - admission conservation is EXACT:
//            received == rejected + shed + completed + truncated + failed
//            admitted == completed + truncated + failed
//        - flight recorder total == admitted (each admitted request ran
//          exactly once, nothing lost, nothing double-run)
//        - answered <= received <= answered + abandoned (client ledger
//          brackets the server ledger; `abandoned` = full frames the chaos
//          clients sent and never read replies for)
//        - per-phase p99 of client-observed response time <= SLO — under
//          overload the server must stay *responsive* (sheds and truncated
//          prefixes return fast) even while it cannot be *complete*
//      Any violation exits nonzero; any crash is its own verdict.
//
// Usage:
//   bench_soak [--duration-s F]
//
// --duration-s sets the TOTAL loaded-soak wall time, split evenly across
// the three load phases (1x/2x/4x) — the long-soak entry point (e.g.
// --duration-s 600 for a ten-minute soak). Without it the per-phase
// default below keeps CI runs short.
//
// Environment:
//   MSQ_SOAK_SCALE       dataset scale          (default 0.05)
//   MSQ_SOAK_PHASE_S     seconds per load phase (default 3;
//                        --duration-s wins when both are given)
//   MSQ_SOAK_CLIENTS     paced client threads   (default 3)
//   MSQ_SOAK_WORKERS     executor workers       (default 2)
//   MSQ_SOAK_DEADLINE_MS per-request deadline   (default 200)
//   MSQ_SOAK_SLO_MS      p99 response-time gate (default 1500)
//   MSQ_SOAK_OUT         JSON report path (default BENCH_soak.json;
//                        empty string disables)
//   MSQ_SOAK_PROM_OUT    Prometheus snapshot dump after drain (optional)
//   MSQ_SOAK_WIDE_OUT    wide-event JSONL dump after drain (optional)
//   MSQ_SOAK_TRACE_OUT   retained-trace Chrome-JSON dump after drain
//   MSQ_SOAK_RSS_GROWTH_MAX  resource gate: max memory ratio last/first
//                        phase (default 1.5; plus a 32 MB absolute slack)
//   MSQ_SOAK_FD_SLACK    resource gate: open fds after drain may exceed
//                        the pre-serve baseline by this many (default 16)
//   MSQ_SOAK_NO_CHAOS    set to disable the chaos thread (load-only runs)
//
// Each phase samples the process RSS (/proc/self/status VmRSS) and the
// open-fd count (/proc/self/fd) at phase end; the report embeds them and
// two gates bound growth: a leaky server fails the run, not a dashboard.
// Under AddressSanitizer the memory gate reads the live heap instead of
// RSS (see GateMemoryKb).
#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define MSQ_SOAK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSQ_SOAK_ASAN 1
#endif
#endif
#ifdef MSQ_SOAK_ASAN
// The sanitizer allocator interface (<sanitizer/allocator_interface.h>
// in LLVM); GCC 12 ships the runtime symbol without that header.
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

#include "common/rng.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace msq::bench {
namespace {

struct SoakEnv {
  double scale = 0.05;
  double phase_seconds = 3.0;
  std::size_t clients = 3;
  std::size_t workers = 2;
  double deadline_ms = 200.0;
  double slo_ms = 1500.0;
  std::string out = "BENCH_soak.json";
  std::string prom_out;
  std::string wide_out;
  std::string trace_out;
  double rss_growth_max = 1.5;
  std::size_t fd_slack = 16;
  bool chaos = true;
};

SoakEnv GetSoakEnv() {
  SoakEnv env;
  if (const char* s = std::getenv("MSQ_SOAK_SCALE")) {
    if (std::atof(s) > 0.0) env.scale = std::atof(s);
  }
  if (const char* s = std::getenv("MSQ_SOAK_PHASE_S")) {
    if (std::atof(s) > 0.0) env.phase_seconds = std::atof(s);
  }
  if (const char* s = std::getenv("MSQ_SOAK_CLIENTS")) {
    if (std::atol(s) > 0) env.clients = static_cast<std::size_t>(std::atol(s));
  }
  if (const char* s = std::getenv("MSQ_SOAK_WORKERS")) {
    if (std::atol(s) > 0) env.workers = static_cast<std::size_t>(std::atol(s));
  }
  if (const char* s = std::getenv("MSQ_SOAK_DEADLINE_MS")) {
    if (std::atof(s) > 0.0) env.deadline_ms = std::atof(s);
  }
  if (const char* s = std::getenv("MSQ_SOAK_SLO_MS")) {
    if (std::atof(s) > 0.0) env.slo_ms = std::atof(s);
  }
  if (const char* s = std::getenv("MSQ_SOAK_OUT")) env.out = s;
  if (const char* s = std::getenv("MSQ_SOAK_PROM_OUT")) env.prom_out = s;
  if (const char* s = std::getenv("MSQ_SOAK_WIDE_OUT")) env.wide_out = s;
  if (const char* s = std::getenv("MSQ_SOAK_TRACE_OUT")) env.trace_out = s;
  if (const char* s = std::getenv("MSQ_SOAK_RSS_GROWTH_MAX")) {
    if (std::atof(s) > 0.0) env.rss_growth_max = std::atof(s);
  }
  if (const char* s = std::getenv("MSQ_SOAK_FD_SLACK")) {
    if (std::atol(s) >= 0) env.fd_slack = static_cast<std::size_t>(std::atol(s));
  }
  if (std::getenv("MSQ_SOAK_NO_CHAOS") != nullptr) env.chaos = false;
  return env;
}

// Resident set in KiB from /proc/self/status (0 if unreadable — the gates
// then pass vacuously rather than fail on an exotic /proc).
std::size_t ReadRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Memory the growth gate tracks, in KiB. Under ASan, RSS also holds the
// allocator's quarantine of freed chunks, which fills with allocation
// volume rather than with leaks, so a run that allocates less per request
// can trip a ratio against RSS with nothing leaked. The gate then reads
// the live heap (allocated, not yet freed; quarantined chunks excluded)
// and leaves the quarantine, and so use-after-free detection, as is.
// Elsewhere it reads RSS.
std::size_t GateMemoryKb() {
#ifdef MSQ_SOAK_ASAN
  return __sanitizer_get_current_allocated_bytes() / 1024;
#else
  return ReadRssKb();
#endif
}

// Open descriptors from /proc/self/fd (".", "..", and the scan's own
// dirfd subtracted).
std::size_t CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n > 3 ? n - 3 : 0;
}

// Client-side ledger, shared across the paced clients of one phase.
struct ClientLedger {
  std::atomic<std::uint64_t> sent{0};       // full frames written
  std::atomic<std::uint64_t> ok{0};         // "status":"OK", not truncated
  std::atomic<std::uint64_t> truncated{0};  // OK but truncated
  std::atomic<std::uint64_t> shed{0};       // RESOURCE_EXHAUSTED/UNAVAILABLE
  std::atomic<std::uint64_t> errors{0};     // any other error response
  // Sent OK but the reply was lost with the connection; the server may or
  // may not have received the frame, so these join the accounting slack,
  // not the answered total.
  std::atomic<std::uint64_t> lost{0};
  std::atomic<std::uint64_t> reconnects{0};
  obs::Histogram latency_us;  // every answered request, any outcome
};

// Chaos-side ledger: `abandoned` counts FULL frames (terminated lines the
// write accepted) whose replies were deliberately never read — the only
// requests the server may have received that no client counted an answer
// for. Half frames and garbage that never formed a line can't increment
// the server's received counter, so they stay out of the bracket.
struct ChaosLedger {
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<std::uint64_t> malformed_sent{0};
  std::atomic<std::uint64_t> malformed_answered{0};
  std::atomic<std::uint64_t> oversize_sent{0};
  std::atomic<std::uint64_t> disconnects{0};
  std::atomic<std::uint64_t> stalls{0};
};

// Serializes a sampled query spec into the serve request schema.
std::string EncodeRequest(const SkylineQuerySpec& spec, const char* algo,
                          double deadline_ms, std::uint64_t page_budget) {
  std::string out = "{\"algo\":\"";
  out += algo;
  out += "\",\"sources\":[";
  for (std::size_t i = 0; i < spec.sources.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s{\"edge\":%u,\"offset\":%.17g}",
                  i > 0 ? "," : "", spec.sources[i].edge,
                  spec.sources[i].offset);
    out += buf;
  }
  out += "],\"limits\":{";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"deadline_ms\":%.17g", deadline_ms);
  out += buf;
  if (page_budget > 0) {
    std::snprintf(buf, sizeof(buf), ",\"page_budget\":%" PRIu64, page_budget);
    out += buf;
  }
  out += "}}";
  return out;
}

// Builds the request mix once; clients rotate through it. A slice carries
// tiny page budgets to exercise truncated-prefix responses even at 1x.
std::vector<std::string> BuildRequestPool(Workload& workload,
                                          const SoakEnv& env) {
  constexpr const char* kAlgos[] = {"lbc", "ce", "edc", "lbc", "lbc", "ce"};
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < 24; ++i) {
    const SkylineQuerySpec spec =
        workload.SampleQuery(2 + i % 3, /*seed=*/400 + i);
    const std::uint64_t budget = i % 5 == 4 ? 8 : 0;  // tiny budget slice
    pool.push_back(EncodeRequest(spec, kAlgos[i % std::size(kAlgos)],
                                 env.deadline_ms, budget));
  }
  // One naive request (admission cost 8x) to push the cost watermark.
  pool.push_back(EncodeRequest(workload.SampleQuery(2, /*seed=*/499),
                               "naive", env.deadline_ms, 0));
  return pool;
}

// Classifies one response line into the client ledger.
void RecordResponse(const std::string& line, ClientLedger* ledger) {
  const StatusOr<serve::JsonValue> json = serve::ParseJson(line);
  if (!json.ok() || !json.value().is_object()) {
    ledger->errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (const serve::JsonValue* error = json.value().Find("error")) {
    const serve::JsonValue* code =
        error->is_object() ? error->Find("code") : nullptr;
    const std::string name =
        code != nullptr && code->is_string() ? code->AsString() : "";
    if (name == "RESOURCE_EXHAUSTED" || name == "UNAVAILABLE") {
      ledger->shed.fetch_add(1, std::memory_order_relaxed);
    } else {
      ledger->errors.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  const serve::JsonValue* truncated = json.value().Find("truncated");
  if (truncated != nullptr && truncated->is_bool() && truncated->AsBool()) {
    ledger->truncated.fetch_add(1, std::memory_order_relaxed);
  } else {
    ledger->ok.fetch_add(1, std::memory_order_relaxed);
  }
}

// One paced client: a persistent NDJSON connection sending requests on an
// open-loop schedule (closed-loop per request — sheds and truncations keep
// replies fast, so the schedule holds under overload) and reconnecting if
// the server drops the connection.
void PacedClient(std::uint16_t port, const std::vector<std::string>& pool,
                 double qps, double until, std::size_t client_index,
                 ClientLedger* ledger) {
  int fd = -1;
  std::size_t next = client_index;  // de-phase the clients in the pool
  const double interval = qps > 0.0 ? 1.0 / qps : 0.0;
  double due = MonotonicSeconds();
  while (true) {
    const double now = MonotonicSeconds();
    if (now >= until) break;
    if (now < due) {
      usleep(static_cast<useconds_t>((due - now) * 1e6));
      continue;
    }
    due += interval > 0.0 ? interval : 0.0;
    if (due < now - 0.25) due = now;  // don't bank unbounded backlog
    if (fd < 0) {
      StatusOr<int> conn = serve::ConnectTcp("127.0.0.1", port);
      if (!conn.ok()) {
        usleep(1000);
        continue;
      }
      fd = conn.value();
      (void)serve::SetSocketTimeouts(fd, /*recv_seconds=*/10.0,
                                     /*send_seconds=*/5.0);
    }
    const std::string& request = pool[next % pool.size()];
    next += 1;
    const double t0 = MonotonicSeconds();
    if (!serve::WriteAll(fd, request + "\n").ok()) {
      ::close(fd);
      fd = -1;
      ledger->reconnects.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ledger->sent.fetch_add(1, std::memory_order_relaxed);
    serve::FrameReader reader(fd, 1u << 20);
    StatusOr<std::string> reply = reader.ReadLine();
    if (!reply.ok()) {
      ::close(fd);
      fd = -1;
      ledger->reconnects.fetch_add(1, std::memory_order_relaxed);
      ledger->lost.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ledger->latency_us.Observe(
        static_cast<std::uint64_t>((MonotonicSeconds() - t0) * 1e6));
    RecordResponse(reply.value(), ledger);
  }
  if (fd >= 0) ::close(fd);
}

// The chaos thread: cycles through hostile behaviors against the same
// port the paced clients use. Every full frame it abandons is tallied so
// the final accounting bracket stays exact.
void ChaosClient(std::uint16_t port, const std::vector<std::string>& pool,
                 double until, ChaosLedger* ledger) {
  Rng rng(0xc4a05u);
  const std::string oversize(256u << 10, 'x');  // past max_request_bytes
  while (MonotonicSeconds() < until) {
    StatusOr<int> conn = serve::ConnectTcp("127.0.0.1", port);
    if (!conn.ok()) {
      usleep(2000);
      continue;
    }
    const int fd = conn.value();
    (void)serve::SetSocketTimeouts(fd, /*recv_seconds=*/5.0,
                                   /*send_seconds=*/5.0);
    switch (rng.NextBounded(4)) {
      case 0: {  // malformed frame; expect a structured error, conn lives
        const char* garbage;
        switch (rng.NextBounded(3)) {
          case 0: garbage = "{\"algo\":\"lbc\",\"sources\":[]}\n"; break;
          case 1: garbage = "{\"algo\":}{]] nope\n"; break;
          default: garbage = "\x01\x02\xff not json at all\n"; break;
        }
        ledger->malformed_sent.fetch_add(1, std::memory_order_relaxed);
        if (serve::WriteAll(fd, garbage, std::strlen(garbage)).ok()) {
          serve::FrameReader reader(fd, 1u << 20);
          if (reader.ReadLine().ok()) {
            ledger->malformed_answered.fetch_add(1,
                                                 std::memory_order_relaxed);
          }
        }
        break;
      }
      case 1: {  // oversized frame; server must reject, not buffer it all
        ledger->oversize_sent.fetch_add(1, std::memory_order_relaxed);
        (void)serve::WriteAll(fd, oversize);  // no newline; cap cuts it off
        serve::FrameReader reader(fd, 1u << 20);
        (void)reader.ReadLine();  // error reply or reset, both fine
        break;
      }
      case 2: {  // mid-request disconnect: half a frame, then vanish
        const std::string& request = pool[rng.NextBounded(pool.size())];
        ledger->disconnects.fetch_add(1, std::memory_order_relaxed);
        (void)serve::WriteAll(fd, request.data(), request.size() / 2);
        break;  // close without the newline — never becomes a frame
      }
      default: {  // stalled reader: full frames in, never reads replies
        const std::size_t frames = 1 + rng.NextBounded(3);
        for (std::size_t i = 0; i < frames; ++i) {
          const std::string& request = pool[rng.NextBounded(pool.size())];
          if (!serve::WriteAll(fd, request + "\n").ok()) break;
          ledger->abandoned.fetch_add(1, std::memory_order_relaxed);
        }
        ledger->stalls.fetch_add(1, std::memory_order_relaxed);
        usleep(static_cast<useconds_t>(rng.NextBounded(20)) * 1000);
        break;  // close with replies unread
      }
    }
    ::close(fd);
    usleep(static_cast<useconds_t>(1 + rng.NextBounded(5)) * 1000);
  }
}

struct PhaseReport {
  std::string name;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t truncated = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  double truncation_rate = 0.0;
  std::size_t rss_kb = 0;
  std::size_t gate_kb = 0;  // GateMemoryKb() at phase end
  std::size_t open_fds = 0;
};

PhaseReport RunPhase(const char* name, std::uint16_t port,
                     const std::vector<std::string>& pool, double qps,
                     double seconds, std::size_t clients,
                     ChaosLedger* chaos_ledger, bool chaos) {
  ClientLedger ledger;
  const double until = MonotonicSeconds() + seconds;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients; ++i) {
    threads.emplace_back(PacedClient, port, std::cref(pool),
                         qps / static_cast<double>(clients), until, i,
                         &ledger);
  }
  std::thread chaos_thread;
  if (chaos) {
    chaos_thread =
        std::thread(ChaosClient, port, std::cref(pool), until, chaos_ledger);
  }
  for (std::thread& t : threads) t.join();
  if (chaos_thread.joinable()) chaos_thread.join();

  PhaseReport report;
  report.name = name;
  report.offered_qps = qps;
  report.sent = ledger.sent.load();
  report.ok = ledger.ok.load();
  report.truncated = ledger.truncated.load();
  report.shed = ledger.shed.load();
  report.errors = ledger.errors.load();
  report.lost = ledger.lost.load();
  report.achieved_qps = static_cast<double>(report.sent) / seconds;
  const obs::Histogram::Snapshot lat = ledger.latency_us.TakeSnapshot();
  report.p50_ms = lat.Quantile(0.5) / 1e3;
  report.p99_ms = lat.Quantile(0.99) / 1e3;
  const double answered = static_cast<double>(report.ok + report.truncated +
                                              report.shed + report.errors);
  if (answered > 0.0) {
    report.shed_rate = static_cast<double>(report.shed) / answered;
    report.truncation_rate =
        static_cast<double>(report.truncated) / answered;
  }
  report.rss_kb = ReadRssKb();
  report.gate_kb = GateMemoryKb();
  report.open_fds = CountOpenFds();
  return report;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  using namespace msq;
  using namespace msq::bench;
  SoakEnv env = GetSoakEnv();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duration-s") == 0 && i + 1 < argc) {
      const double total = std::atof(argv[++i]);
      if (total <= 0.0) {
        std::fprintf(stderr, "bench_soak: --duration-s must be > 0\n");
        return 2;
      }
      // Three loaded phases (1x/2x/4x) share the budget; calibration is
      // capped separately and stays short.
      env.phase_seconds = total / 3.0;
    } else {
      std::fprintf(stderr, "usage: %s [--duration-s F]\n", argv[0]);
      return 2;
    }
  }

  WorkloadConfig config;
  config.network = PaperNetworkConfig(NetworkClass::kCA, env.scale,
                                      /*seed=*/12);
  config.object_density = 0.5;
  FaultInjectionConfig inject;
  inject.seed = 77;
  inject.transient_read_rate = 0.01;   // retries absorb these
  inject.persistent_read_rate = 0.001; // these surface as failed requests
  config.fault_injection = inject;
  Workload workload(config);
  workload.graph_faults()->Arm();
  workload.index_faults()->Arm();

  // Tracing on for the whole soak: requests past the deadline count as
  // slow (100% tail-retained), plus 1-in-64 head sampling so the retained
  // set and the wide-event dump are non-empty even on an all-fast run.
  obs::TelemetryConfig telemetry_config;
  telemetry_config.slow_wall_seconds = env.deadline_ms / 1e3;
  telemetry_config.head_sample_every = 64;
  QueryExecutor executor(workload.dataset(), env.workers, telemetry_config);
  serve::ServerConfig server_config;
  // max_pending sits between the 1x concurrency (env.clients) and the 2x
  // concurrency (2 * env.clients): no shedding at 1x, real shedding at 2x
  // and 4x, whatever the calibrated capacity turns out to be.
  server_config.admission.max_pending = env.clients + 1;
  server_config.admission.max_pending_cost = 48.0;
  server_config.max_request_bytes = 64 * 1024;
  server_config.read_timeout_seconds = 6.0;
  server_config.write_timeout_seconds = 2.0;
  serve::MsqServer server(&executor, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_soak: %s\n", started.ToString().c_str());
    return 1;
  }

  const obs::BuildInfo& build = obs::GetBuildInfo();
  std::printf("bench_soak: CA scale %.2f, %zu workers, %zu clients, "
              "deadline %.0f ms, chaos %s (build %s)\n",
              env.scale, env.workers, env.clients, env.deadline_ms,
              env.chaos ? "on" : "off", std::string(build.git_sha).c_str());

  const std::vector<std::string> pool = BuildRequestPool(workload, env);
  ChaosLedger chaos_ledger;

  // Resource baseline: after the listener and worker pool exist, before
  // any client traffic. Phase samples are compared against this.
  const std::size_t baseline_fds = CountOpenFds();

  // Calibration: unpaced closed-loop traffic, no chaos, measures capacity.
  const PhaseReport calibration =
      RunPhase("calibrate", server.port(), pool, /*qps=*/0.0,
               std::min(env.phase_seconds, 2.0), env.clients, &chaos_ledger,
               /*chaos=*/false);
  const double capacity = calibration.achieved_qps > 1.0
                              ? calibration.achieved_qps
                              : 1.0;
  std::printf("calibrated capacity: %.0f QPS\n\n", capacity);

  // Offered load scales by scaling the client-thread count with the
  // multiplier (per-thread pace stays the calibrated per-thread rate):
  // paced closed-loop threads cannot oversubscribe a server by pacing
  // alone, concurrency has to rise the way real client fleets do.
  constexpr double kMultipliers[] = {1.0, 2.0, 4.0};
  std::vector<PhaseReport> phases;
  for (const double multiplier : kMultipliers) {
    char name[16];
    std::snprintf(name, sizeof(name), "%.0fx", multiplier);
    const std::size_t threads =
        static_cast<std::size_t>(static_cast<double>(env.clients) *
                                 multiplier);
    phases.push_back(RunPhase(name, server.port(), pool,
                              capacity * multiplier, env.phase_seconds,
                              threads, &chaos_ledger, env.chaos));
  }

  server.Shutdown();

  std::printf("%-10s %10s %10s %8s %8s %8s %7s %6s %9s %9s %7s %7s\n",
              "phase", "offered", "achieved", "ok", "trunc", "shed",
              "errors", "lost", "p50(ms)", "p99(ms)", "shed%", "trunc%");
  for (const PhaseReport& p : phases) {
    std::printf("%-10s %10.0f %10.0f %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %7" PRIu64 " %6" PRIu64 " %9.2f %9.2f %6.1f%% %6.1f%%\n",
                p.name.c_str(), p.offered_qps, p.achieved_qps, p.ok,
                p.truncated, p.shed, p.errors, p.lost, p.p50_ms, p.p99_ms,
                p.shed_rate * 100.0, p.truncation_rate * 100.0);
  }

  // --- The gates ---
  const serve::AdmissionController& admission = server.admission();
  std::size_t violations = 0;
  auto gate = [&](bool ok, const char* what, const std::string& detail) {
    std::printf("gate %-38s %s%s%s\n", what, ok ? "PASS" : "FAIL",
                detail.empty() ? "" : " — ", detail.c_str());
    if (!ok) ++violations;
  };

  const std::string conservation = admission.CheckConservation();
  gate(conservation.empty(), "admission conservation exact", conservation);

  const std::uint64_t flight_total =
      executor.telemetry().flight_recorder().Snapshot().total;
  {
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "flight %" PRIu64 " vs admitted %" PRIu64, flight_total,
                  admission.admitted());
    gate(flight_total == admission.admitted(),
         "flight recorder == admitted", detail);
  }

  // Client ledger brackets the server ledger. `answered` includes the
  // calibration phase; malformed/oversize frames the chaos thread got
  // replies for are server-received too, so they join the lower bound.
  std::uint64_t answered = calibration.ok + calibration.truncated +
                           calibration.shed + calibration.errors;
  std::uint64_t valid_sent = calibration.sent;
  for (const PhaseReport& p : phases) {
    answered += p.ok + p.truncated + p.shed + p.errors;
    valid_sent += p.sent;
  }
  answered += chaos_ledger.malformed_answered.load();
  std::uint64_t lost = calibration.lost;
  for (const PhaseReport& p : phases) lost += p.lost;
  const std::uint64_t slack = chaos_ledger.abandoned.load() +
                              chaos_ledger.oversize_sent.load() +
                              (chaos_ledger.malformed_sent.load() -
                               chaos_ledger.malformed_answered.load()) +
                              lost;
  {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "answered %" PRIu64 " <= received %" PRIu64
                  " <= answered+slack %" PRIu64,
                  answered, admission.received(), answered + slack);
    gate(answered <= admission.received() &&
             admission.received() <= answered + slack,
         "client ledger brackets server ledger", detail);
  }

  for (const PhaseReport& p : phases) {
    char what[64];
    std::snprintf(what, sizeof(what), "p99 <= %.0f ms at %s", env.slo_ms,
                  p.name.c_str());
    char detail[64];
    std::snprintf(detail, sizeof(detail), "p99 %.2f ms", p.p99_ms);
    gate(p.p99_ms <= env.slo_ms, what, detail);
  }

  // Resource gates. Memory (RSS, or the live heap under ASan) may grow
  // with load (buffers, per-connection state) but must stay within a ratio
  // of the first loaded phase — a per-request leak compounds across the 2x
  // and 4x phases and blows straight through it. The small absolute slack
  // keeps tiny-scale runs (a few MB) from failing on allocator noise. Fds
  // are checked after Shutdown: every connection is closed, so the count
  // must return to the pre-traffic baseline give or take the configured
  // slack.
  {
#ifdef MSQ_SOAK_ASAN
    const char* const kMemory = "live heap";
#else
    const char* const kMemory = "rss";
#endif
    const std::size_t first_kb = calibration.gate_kb;
    const std::size_t last_kb = phases.empty() ? first_kb
                                               : phases.back().gate_kb;
    const double limit_kb =
        static_cast<double>(first_kb) * env.rss_growth_max + 32.0 * 1024.0;
    char what[64];
    std::snprintf(what, sizeof(what), "%s growth <= %.2fx", kMemory,
                  env.rss_growth_max);
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%s %zu KB -> %zu KB (limit %.0f KB)",
                  kMemory, first_kb, last_kb, limit_kb);
    gate(first_kb == 0 || static_cast<double>(last_kb) <= limit_kb, what,
         detail);
  }
  const std::size_t final_fds = CountOpenFds();
  {
    char what[64];
    std::snprintf(what, sizeof(what), "open fds <= baseline + %zu",
                  env.fd_slack);
    char detail[96];
    std::snprintf(detail, sizeof(detail), "fds %zu -> %zu after drain",
                  baseline_fds, final_fds);
    gate(baseline_fds == 0 || final_fds <= baseline_fds + env.fd_slack,
         what, detail);
  }

  std::printf("\nserver totals: received %" PRIu64 " rejected %" PRIu64
              " shed %" PRIu64 " completed %" PRIu64 " truncated %" PRIu64
              " failed %" PRIu64 "\n",
              admission.received(), admission.rejected(), admission.shed(),
              admission.completed(), admission.truncated(),
              admission.failed());
  std::printf("chaos: %" PRIu64 " malformed (%" PRIu64 " answered), %" PRIu64
              " oversize, %" PRIu64 " half-frame disconnects, %" PRIu64
              " stalls, %" PRIu64 " frames abandoned\n",
              chaos_ledger.malformed_sent.load(),
              chaos_ledger.malformed_answered.load(),
              chaos_ledger.oversize_sent.load(),
              chaos_ledger.disconnects.load(), chaos_ledger.stalls.load(),
              chaos_ledger.abandoned.load());

  if (!env.out.empty()) {
    std::string json = "{\n  \"bench\": \"soak\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"git_sha\": \"%s\",\n  \"scale\": %.3f,\n"
                  "  \"workers\": %zu,\n  \"deadline_ms\": %.0f,\n"
                  "  \"capacity_qps\": %.1f,\n  \"phases\": [\n",
                  std::string(build.git_sha).c_str(), env.scale,
                  env.workers, env.deadline_ms, capacity);
    json += buf;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseReport& p = phases[i];
      char line[448];
      std::snprintf(
          line, sizeof(line),
          "    {\"phase\": \"%s\", \"offered_qps\": %.1f, "
          "\"achieved_qps\": %.1f, \"ok\": %" PRIu64 ", \"truncated\": %"
          PRIu64 ", \"shed\": %" PRIu64 ", \"errors\": %" PRIu64
          ", \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"shed_rate\": %.4f, "
          "\"truncation_rate\": %.4f, \"rss_kb\": %zu, \"gate_kb\": %zu, "
          "\"open_fds\": %zu}%s\n",
          p.name.c_str(), p.offered_qps, p.achieved_qps, p.ok, p.truncated,
          p.shed, p.errors, p.p50_ms, p.p99_ms, p.shed_rate,
          p.truncation_rate, p.rss_kb, p.gate_kb, p.open_fds,
          i + 1 < phases.size() ? "," : "");
      json += line;
    }
    json += "  ],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"baseline_rss_kb\": %zu, \"baseline_fds\": %zu, "
                  "\"final_fds\": %zu,\n",
                  calibration.rss_kb, baseline_fds, final_fds);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"received\": %" PRIu64 ", \"rejected\": %" PRIu64
                  ", \"shed\": %" PRIu64 ", \"completed\": %" PRIu64
                  ", \"truncated\": %" PRIu64 ", \"failed\": %" PRIu64
                  ",\n  \"gates_failed\": %zu\n}\n",
                  admission.received(), admission.rejected(),
                  admission.shed(), admission.completed(),
                  admission.truncated(), admission.failed(), violations);
    json += buf;
    if (!WriteFile(env.out, json)) {
      std::fprintf(stderr, "cannot write %s\n", env.out.c_str());
      return 1;
    }
  }
  if (!env.prom_out.empty()) {
    (void)WriteFile(env.prom_out,
                    obs::PrometheusText(*executor.telemetry().registry(),
                                        &executor.telemetry().exemplars()));
  }
  if (!env.wide_out.empty()) {
    (void)WriteFile(env.wide_out, server.wide_events().Jsonl());
  }
  if (!env.trace_out.empty()) {
    (void)WriteFile(env.trace_out, obs::RetainedTraceDumpJson(
                                       executor.telemetry().trace_store()));
  }

  if (violations > 0) {
    std::fprintf(stderr, "\nbench_soak: %zu gate(s) FAILED\n", violations);
    return 1;
  }
  std::printf("\nbench_soak: all gates passed\n");
  return 0;
}
