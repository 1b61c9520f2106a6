// Churn harness for the dynamic world (DESIGN.md §16).
//
// Runs an in-process MsqServer over a fault-injected workload with the
// mutation path wired (update_edge / insert_object / delete_object through
// QueryExecutor::SubmitExclusive) and drives mixed traffic — CE/EDC/LBC
// queries with mutations interleaved — through real loopback NDJSON
// connections at 1x / 2x / 4x client concurrency, storage faults armed
// throughout. After a graceful drain, the gates:
//
//   - admission conservation is EXACT (received == rejected + shed +
//     completed + truncated + failed; admitted == completed + truncated +
//     failed) with mutations in the mix;
//   - mutations actually ran: applied > 0 on the server counters, and the
//     data_epoch reported by mutation responses is strictly monotone per
//     connection (an epoch that ever moved backwards means two mutations
//     raced the barrier);
//   - the oracle: with faults disarmed, a warm post-churn run of every
//     pooled query under each cached algorithm is byte-identical to a
//     cold, cacheless run on the same (mutated) world — epoch-correct
//     invalidation end to end;
//   - bounded storage growth: live pages (allocated minus freed) across
//     both page stores grow at most linearly with the net objects the
//     churn added, never with the mutation count — COW aborts and B+-tree
//     frees returned their pages.
//
// Any violation exits nonzero; any crash is its own verdict.
//
// Environment:
//   MSQ_CHURN_SCALE       dataset scale            (default 0.05)
//   MSQ_CHURN_PHASE_S     seconds per load phase   (default 2)
//   MSQ_CHURN_CLIENTS     base client threads      (default 2)
//   MSQ_CHURN_WORKERS     executor workers         (default 2)
//   MSQ_CHURN_MUTATE_EVERY a mutation every Nth request per client
//                         (default 6)
//   MSQ_CHURN_OUT         JSON report path (default BENCH_churn.json;
//                         empty string disables)
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "common/rng.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/build_info.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/socket.h"

namespace msq::bench {
namespace {

struct ChurnEnv {
  double scale = 0.05;
  double phase_seconds = 2.0;
  std::size_t clients = 2;
  std::size_t workers = 2;
  std::size_t mutate_every = 6;
  std::string out = "BENCH_churn.json";
};

ChurnEnv GetChurnEnv() {
  ChurnEnv env;
  if (const char* s = std::getenv("MSQ_CHURN_SCALE")) {
    if (std::atof(s) > 0.0) env.scale = std::atof(s);
  }
  if (const char* s = std::getenv("MSQ_CHURN_PHASE_S")) {
    if (std::atof(s) > 0.0) env.phase_seconds = std::atof(s);
  }
  if (const char* s = std::getenv("MSQ_CHURN_CLIENTS")) {
    if (std::atol(s) > 0) env.clients = static_cast<std::size_t>(std::atol(s));
  }
  if (const char* s = std::getenv("MSQ_CHURN_WORKERS")) {
    if (std::atol(s) > 0) env.workers = static_cast<std::size_t>(std::atol(s));
  }
  if (const char* s = std::getenv("MSQ_CHURN_MUTATE_EVERY")) {
    if (std::atol(s) > 1) {
      env.mutate_every = static_cast<std::size_t>(std::atol(s));
    }
  }
  if (const char* s = std::getenv("MSQ_CHURN_OUT")) env.out = s;
  return env;
}

std::string EncodeQuery(const SkylineQuerySpec& spec, const char* algo) {
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
  out += "],\"limits\":{\"deadline_ms\":2000}}";
  return out;
}

// Per-client churn ledger; merged into the phase report after join.
struct ClientLedger {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> query_ok{0};
  std::atomic<std::uint64_t> truncated{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> lost{0};
  std::atomic<std::uint64_t> mutations_ok{0};
  std::atomic<std::uint64_t> mutations_failed{0};
  std::atomic<std::uint64_t> inserted{0};
  std::atomic<std::uint64_t> deleted{0};
  std::atomic<std::uint64_t> epoch_regressions{0};
  std::atomic<std::uint64_t> max_epoch{0};
};

// One closed-loop client: queries with a mutation every `mutate_every`th
// request. Mutations rotate update_edge -> insert_object -> delete (of an
// id this client inserted, when one is available). The per-connection
// data_epoch must never move backwards: responses come back in request
// order on one connection, and every mutation bumps the epoch.
void ChurnClient(std::uint16_t port, const std::vector<std::string>& pool,
                 std::size_t edge_count, double mean_edge_length,
                 std::size_t mutate_every, double until,
                 std::size_t client_index, ClientLedger* ledger) {
  Rng rng(0xc0ffee + client_index * 977);
  std::vector<std::uint64_t> my_objects;
  std::uint64_t last_epoch = 0;
  int fd = -1;
  std::size_t next = client_index;
  std::size_t mutation_kind = client_index;
  while (MonotonicSeconds() < until) {
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
    std::string request;
    const bool mutation = next % mutate_every == mutate_every - 1;
    if (mutation) {
      char buf[128];
      switch (mutation_kind++ % 3) {
        case 0: {
          const std::uint32_t edge =
              static_cast<std::uint32_t>(rng.NextBounded(edge_count));
          const double length =
              mean_edge_length * (0.25 + rng.NextDouble() * 2.0);
          std::snprintf(buf, sizeof(buf),
                        "{\"op\":\"update_edge\",\"edge\":%u,"
                        "\"length\":%.17g}",
                        edge, length);
          break;
        }
        case 1: {
          const std::uint32_t edge =
              static_cast<std::uint32_t>(rng.NextBounded(edge_count));
          std::snprintf(buf, sizeof(buf),
                        "{\"op\":\"insert_object\",\"edge\":%u,"
                        "\"offset\":0}",
                        edge);
          break;
        }
        default: {
          if (my_objects.empty()) {
            std::snprintf(buf, sizeof(buf),
                          "{\"op\":\"insert_object\",\"edge\":%u,"
                          "\"offset\":0}",
                          static_cast<std::uint32_t>(
                              rng.NextBounded(edge_count)));
          } else {
            const std::uint64_t id = my_objects.back();
            my_objects.pop_back();
            std::snprintf(buf, sizeof(buf),
                          "{\"op\":\"delete_object\",\"object\":%" PRIu64
                          "}",
                          id);
          }
          break;
        }
      }
      request = buf;
    } else {
      request = pool[next % pool.size()];
    }
    next += 1;
    if (!serve::WriteAll(fd, request + "\n").ok()) {
      ::close(fd);
      fd = -1;
      continue;
    }
    ledger->sent.fetch_add(1, std::memory_order_relaxed);
    serve::FrameReader reader(fd, 1u << 20);
    StatusOr<std::string> reply = reader.ReadLine();
    if (!reply.ok()) {
      ::close(fd);
      fd = -1;
      ledger->lost.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const StatusOr<serve::JsonValue> json = serve::ParseJson(reply.value());
    if (!json.ok() || !json.value().is_object()) {
      ledger->errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (const serve::JsonValue* error = json.value().Find("error")) {
      const serve::JsonValue* code =
          error->is_object() ? error->Find("code") : nullptr;
      const std::string name =
          code != nullptr && code->is_string() ? code->AsString() : "";
      if (name == "RESOURCE_EXHAUSTED" || name == "UNAVAILABLE") {
        ledger->shed.fetch_add(1, std::memory_order_relaxed);
      } else if (mutation) {
        ledger->mutations_failed.fetch_add(1, std::memory_order_relaxed);
      } else {
        ledger->errors.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (const serve::JsonValue* op = json.value().Find("op")) {
      ledger->mutations_ok.fetch_add(1, std::memory_order_relaxed);
      const serve::JsonValue* epoch = json.value().Find("data_epoch");
      if (epoch != nullptr && epoch->is_number()) {
        const std::uint64_t e =
            static_cast<std::uint64_t>(epoch->AsNumber());
        if (e <= last_epoch) {
          ledger->epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = e;
        std::uint64_t seen = ledger->max_epoch.load();
        while (e > seen && !ledger->max_epoch.compare_exchange_weak(seen, e)) {
        }
      }
      if (op->is_string() && op->AsString() == "insert_object") {
        const serve::JsonValue* id = json.value().Find("object");
        if (id != nullptr && id->is_number()) {
          my_objects.push_back(static_cast<std::uint64_t>(id->AsNumber()));
          ledger->inserted.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (op->is_string() && op->AsString() == "delete_object") {
        const serve::JsonValue* removed = json.value().Find("removed");
        if (removed != nullptr && removed->is_bool() && removed->AsBool()) {
          ledger->deleted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      continue;
    }
    const serve::JsonValue* truncated = json.value().Find("truncated");
    if (truncated != nullptr && truncated->is_bool() &&
        truncated->AsBool()) {
      ledger->truncated.fetch_add(1, std::memory_order_relaxed);
    } else {
      ledger->query_ok.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (fd >= 0) ::close(fd);
}

struct PhaseReport {
  std::string name;
  std::size_t clients = 0;
  double achieved_qps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t query_ok = 0;
  std::uint64_t truncated = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  std::uint64_t mutations_ok = 0;
  std::uint64_t mutations_failed = 0;
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
  std::uint64_t epoch_regressions = 0;
  std::uint64_t max_epoch = 0;
};

PhaseReport RunPhase(const char* name, std::uint16_t port,
                     const std::vector<std::string>& pool,
                     std::size_t edge_count, double mean_edge_length,
                     std::size_t mutate_every, double seconds,
                     std::size_t clients) {
  ClientLedger ledger;
  const double until = MonotonicSeconds() + seconds;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients; ++i) {
    threads.emplace_back(ChurnClient, port, std::cref(pool), edge_count,
                         mean_edge_length, mutate_every, until, i, &ledger);
  }
  for (std::thread& t : threads) t.join();
  PhaseReport report;
  report.name = name;
  report.clients = clients;
  report.sent = ledger.sent.load();
  report.query_ok = ledger.query_ok.load();
  report.truncated = ledger.truncated.load();
  report.shed = ledger.shed.load();
  report.errors = ledger.errors.load();
  report.lost = ledger.lost.load();
  report.mutations_ok = ledger.mutations_ok.load();
  report.mutations_failed = ledger.mutations_failed.load();
  report.inserted = ledger.inserted.load();
  report.deleted = ledger.deleted.load();
  report.epoch_regressions = ledger.epoch_regressions.load();
  report.max_epoch = ledger.max_epoch.load();
  report.achieved_qps = static_cast<double>(report.sent) / seconds;
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

int main() {
  using namespace msq;
  using namespace msq::bench;
  const ChurnEnv env = GetChurnEnv();

  WorkloadConfig config;
  config.network = PaperNetworkConfig(NetworkClass::kCA, env.scale,
                                      /*seed=*/21);
  config.object_density = 0.5;
  FaultInjectionConfig inject;
  inject.seed = 31;
  inject.transient_read_rate = 0.01;  // retries absorb these
  config.fault_injection = inject;
  Workload workload(config);
  workload.graph_faults()->Arm();
  workload.index_faults()->Arm();

  QueryCache cache;
  Dataset dataset = workload.dataset();
  dataset.cache = &cache;
  QueryExecutor executor(dataset, env.workers);

  serve::ServerConfig server_config;
  server_config.admission.max_pending = 2 * env.clients + 2;
  server_config.admission.max_pending_cost = 64.0;
  server_config.mutation_handler =
      serve::WorkloadMutationHandler(&executor, &workload);
  serve::MsqServer server(&executor, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_churn: %s\n", started.ToString().c_str());
    return 1;
  }

  const obs::BuildInfo& build = obs::GetBuildInfo();
  std::printf("bench_churn: CA scale %.2f, %zu workers, %zu base clients, "
              "mutation every %zu requests, %u hw threads (build %s)\n",
              env.scale, env.workers, env.clients, env.mutate_every,
              std::thread::hardware_concurrency(),
              std::string(build.git_sha).c_str());

  // Query pool + mutation parameters.
  std::vector<std::string> pool;
  constexpr const char* kAlgos[] = {"lbc", "ce", "edc"};
  for (std::size_t i = 0; i < 18; ++i) {
    pool.push_back(EncodeQuery(workload.SampleQuery(2 + i % 3, 600 + i),
                               kAlgos[i % 3]));
  }
  const std::size_t edge_count = workload.network().edge_count();
  double mean_edge_length = 0.0;
  for (std::size_t e = 0; e < edge_count; ++e) {
    mean_edge_length +=
        workload.network().EdgeAt(static_cast<EdgeId>(e)).length;
  }
  mean_edge_length /= static_cast<double>(edge_count);

  // Live-page baseline after build, before churn.
  DiskManager* graph_disk = workload.dataset().graph_buffer->disk();
  DiskManager* index_disk = workload.dataset().index_buffer->disk();
  const std::size_t live_start = (graph_disk->PageCount() -
                                  graph_disk->FreeCount()) +
                                 (index_disk->PageCount() -
                                  index_disk->FreeCount());

  constexpr double kMultipliers[] = {1.0, 2.0, 4.0};
  std::vector<PhaseReport> phases;
  for (const double multiplier : kMultipliers) {
    char name[16];
    std::snprintf(name, sizeof(name), "%.0fx", multiplier);
    const std::size_t clients = static_cast<std::size_t>(
        static_cast<double>(env.clients) * multiplier);
    phases.push_back(RunPhase(name, server.port(), pool, edge_count,
                              mean_edge_length, env.mutate_every,
                              env.phase_seconds, clients));
  }

  server.Shutdown();
  workload.graph_faults()->Disarm();
  workload.index_faults()->Disarm();

  std::printf("%-6s %8s %10s %8s %8s %6s %6s %6s %8s %8s %8s\n", "phase",
              "clients", "achieved", "ok", "trunc", "shed", "errs", "lost",
              "mut_ok", "mut_err", "epoch");
  for (const PhaseReport& p : phases) {
    std::printf("%-6s %8zu %10.0f %8" PRIu64 " %8" PRIu64 " %6" PRIu64
                " %6" PRIu64 " %6" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %8" PRIu64 "\n",
                p.name.c_str(), p.clients, p.achieved_qps, p.query_ok,
                p.truncated, p.shed, p.errors, p.lost, p.mutations_ok,
                p.mutations_failed, p.max_epoch);
  }

  // --- The gates ---
  std::size_t violations = 0;
  auto gate = [&](bool ok, const char* what, const std::string& detail) {
    std::printf("gate %-42s %s%s%s\n", what, ok ? "PASS" : "FAIL",
                detail.empty() ? "" : " — ", detail.c_str());
    if (!ok) ++violations;
  };

  const serve::AdmissionController& admission = server.admission();
  const std::string conservation = admission.CheckConservation();
  gate(conservation.empty(), "admission conservation exact", conservation);

  std::uint64_t mutations_ok = 0;
  std::uint64_t query_ok = 0;
  std::uint64_t epoch_regressions = 0;
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
  for (const PhaseReport& p : phases) {
    mutations_ok += p.mutations_ok;
    query_ok += p.query_ok + p.truncated;
    epoch_regressions += p.epoch_regressions;
    inserted += p.inserted;
    deleted += p.deleted;
  }
  {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%" PRIu64 " mutations, %" PRIu64 " queries answered OK",
                  mutations_ok, query_ok);
    gate(mutations_ok > 0 && query_ok > 0,
         "churn actually interleaved with queries", detail);
  }
  {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "%" PRIu64 " regressions",
                  epoch_regressions);
    gate(epoch_regressions == 0, "data_epoch monotone per connection",
         detail);
  }

  // The oracle: warm answers on the churned world equal a cold cacheless
  // rebuild of each answer. Any stale cache entry surviving the epoch
  // bumps shows up here as a vector or membership mismatch.
  std::size_t oracle_mismatches = 0;
  std::size_t oracle_failures = 0;
  constexpr Algorithm kOracleAlgos[] = {Algorithm::kCe, Algorithm::kEdc,
                                        Algorithm::kLbc};
  for (std::size_t i = 0; i < 6; ++i) {
    const SkylineQuerySpec spec = workload.SampleQuery(2 + i % 3, 900 + i);
    for (const Algorithm algorithm : kOracleAlgos) {
      Dataset warm_dataset = workload.dataset();
      warm_dataset.cache = &cache;
      const SkylineResult warm =
          RunSkylineQuery(algorithm, warm_dataset, spec);
      workload.ResetBuffers();
      const SkylineResult cold =
          RunSkylineQuery(algorithm, workload.dataset(), spec);
      if (!warm.status.ok() || !cold.status.ok()) {
        ++oracle_failures;
        continue;
      }
      bool same = warm.skyline.size() == cold.skyline.size();
      for (std::size_t j = 0; same && j < warm.skyline.size(); ++j) {
        same = warm.skyline[j].object == cold.skyline[j].object &&
               warm.skyline[j].vector == cold.skyline[j].vector;
      }
      if (!same) ++oracle_mismatches;
    }
  }
  {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%zu mismatches, %zu failures over 18 runs",
                  oracle_mismatches, oracle_failures);
    gate(oracle_mismatches == 0 && oracle_failures == 0,
         "warm post-churn == cold oracle", detail);
  }

  // Bounded growth: net object inserts may grow both stores (R-tree,
  // B+-tree, attribute rows), but aborted ops and deletes must return
  // their pages. Allow a handful of pages per net insert plus a flat
  // slack for amortized tree growth.
  const std::size_t live_end = (graph_disk->PageCount() -
                                graph_disk->FreeCount()) +
                               (index_disk->PageCount() -
                                index_disk->FreeCount());
  const std::uint64_t net_inserted = inserted > deleted
                                         ? inserted - deleted
                                         : 0;
  const std::size_t live_limit =
      live_start + 64 + 6 * static_cast<std::size_t>(net_inserted);
  {
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "live pages %zu -> %zu (net +%" PRIu64
                  " objects, limit %zu)",
                  live_start, live_end, net_inserted, live_limit);
    gate(live_end <= live_limit, "storage growth bounded by net inserts",
         detail);
  }

  std::printf("\nserver totals: received %" PRIu64 " rejected %" PRIu64
              " shed %" PRIu64 " completed %" PRIu64 " truncated %" PRIu64
              " failed %" PRIu64 ", final data_epoch %" PRIu64 "\n",
              admission.received(), admission.rejected(), admission.shed(),
              admission.completed(), admission.truncated(),
              admission.failed(),
              workload.dataset().graph_pager->data_epoch());

  if (!env.out.empty()) {
    std::string json = "{\n  \"bench\": \"churn\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"git_sha\": \"%s\",\n  \"scale\": %.3f,\n"
                  "  \"workers\": %zu,\n  \"mutate_every\": %zu,\n"
                  "  \"hardware_concurrency\": %u,\n  \"phases\": [\n",
                  std::string(build.git_sha).c_str(), env.scale,
                  env.workers, env.mutate_every,
                  std::thread::hardware_concurrency());
    json += buf;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseReport& p = phases[i];
      char line[384];
      std::snprintf(
          line, sizeof(line),
          "    {\"phase\": \"%s\", \"clients\": %zu, \"achieved_qps\": "
          "%.1f, \"query_ok\": %" PRIu64 ", \"truncated\": %" PRIu64
          ", \"shed\": %" PRIu64 ", \"errors\": %" PRIu64
          ", \"mutations_ok\": %" PRIu64 ", \"mutations_failed\": %" PRIu64
          ", \"max_epoch\": %" PRIu64 "}%s\n",
          p.name.c_str(), p.clients, p.achieved_qps, p.query_ok,
          p.truncated, p.shed, p.errors, p.mutations_ok,
          p.mutations_failed, p.max_epoch,
          i + 1 < phases.size() ? "," : "");
      json += line;
    }
    json += "  ],\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"received\": %" PRIu64 ", \"completed\": %" PRIu64
                  ", \"failed\": %" PRIu64 ",\n  \"live_pages_start\": %zu,"
                  " \"live_pages_end\": %zu,\n  \"final_data_epoch\": %"
                  PRIu64 ",\n  \"gates_failed\": %zu\n}\n",
                  admission.received(), admission.completed(),
                  admission.failed(), live_start, live_end,
                  workload.dataset().graph_pager->data_epoch(), violations);
    json += buf;
    if (!WriteFile(env.out, json)) {
      std::fprintf(stderr, "cannot write %s\n", env.out.c_str());
      return 1;
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "\nbench_churn: %zu gate(s) FAILED\n", violations);
    return 1;
  }
  std::printf("\nbench_churn: all gates passed\n");
  return 0;
}
