// Concurrent throughput benchmark: a fixed mixed CE/EDC/LBC batch on the
// Figure-5 (CA) and Figure-6 (NA) workloads, replayed through QueryExecutor
// at 1/2/4/8 workers. Reports QPS and per-query latency percentiles (from
// the log-bucketed obs::Histogram — the same substrate serving telemetry
// uses), checks every concurrent result byte-for-byte against the
// single-threaded run, and writes the numbers as JSON for the committed
// BENCH_throughput.json.
//
// Each worker count is measured three ways: cold with default always-on
// telemetry (the serving configuration), cold with telemetry disabled
// (the PR-4-equivalent baseline the <2% overhead budget is measured
// against; the two cold passes run as interleaved timed repetitions and
// each reports its min wall, so ambient-load drift cancels out of the
// comparison), and warm (executor-owned QueryCache populated by
// an untimed pass, then the same batch timed) — the warm columns quantify
// the cross-query cache's page-access reduction and QPS gain on repeated
// queries, with results still checked byte-for-byte against the oracle.
//
// Environment:
//   MSQ_BENCH_SCALE        dataset scale (bench_common.h; default 0.2)
//   MSQ_THROUGHPUT_BATCH   requests per batch (default 48)
//   MSQ_THROUGHPUT_OUT     JSON output path (default BENCH_throughput.json
//                          in the working directory; empty string disables)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/skyline_query.h"
#include "exec/query_executor.h"
#include "gen/workloads.h"
#include "obs/build_info.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"

namespace msq::bench {
namespace {

constexpr Algorithm kAlgorithms[] = {Algorithm::kCe, Algorithm::kEdc,
                                     Algorithm::kLbc};
constexpr std::size_t kWorkerCounts[] = {1, 2, 4, 8};
// Timed batch repetitions per cold mode; the best (min-wall) repetition is
// reported, damping one-off scheduler hiccups that would otherwise swamp
// the sub-2% telemetry-overhead comparison. kTimedReps is the floor —
// TimedBatches keeps repeating until the cumulative timed window reaches
// kMinTimedSeconds (or kMaxTimedReps), because a single CA batch runs in
// ~35 ms and a best-of-3 over windows that short is pure scheduler noise
// on a shared host; the min over ~20 reps converges to the cost floor on
// both sides of the telemetry-on/off comparison.
constexpr std::size_t kTimedReps = 3;
constexpr std::size_t kMaxTimedReps = 40;
constexpr double kMinTimedSeconds = 6.0;

struct Point {
  std::size_t workers = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double speedup = 1.0;
  bool matches_oracle = true;
  // Cold pass re-run with TelemetryConfig{enabled=false}: the PR-4
  // baseline the always-on overhead budget is measured against.
  double telemetry_off_wall_seconds = 0.0;
  double qps_telemetry_off = 0.0;
  double telemetry_overhead_pct = 0.0;
  // Warm-cache replay of the same batch through a cache-carrying executor.
  double warm_wall_seconds = 0.0;
  double warm_qps = 0.0;
  std::uint64_t cold_network_accesses = 0;
  std::uint64_t warm_network_accesses = 0;
  double warm_access_reduction_pct = 0.0;
  std::uint64_t warm_wavefront_hits = 0;
  std::uint64_t warm_memo_hits = 0;
  bool warm_matches_oracle = true;
};

struct WorkloadReport {
  std::string network;
  std::size_t query_count = 0;
  double density = 0.0;
  std::vector<Point> points;
};

// Untimed warm-up batches per executor before its timed batches start:
// spins up the worker threads, faults the hot pages in, and drains the
// allocator's cold start so the first timed batch is not the noisy one
// (it used to dominate p99).
constexpr std::size_t kWarmupBatches = 1;

// Warms both executors with kWarmupBatches untimed batches each, then
// alternates timed repetitions between them — at least `kTimedReps` pairs,
// continuing until each side's cumulative timed window reaches
// kMinTimedSeconds or kMaxTimedReps pairs have run. Returns each side's
// minimum timed wall seconds (the cost floor) through `wall_a`/`wall_b`;
// `results_a`/`results_b` receive each side's final repetition results.
void TimedBatchesPaired(QueryExecutor& a, QueryExecutor& b,
                        const std::vector<QueryRequest>& requests,
                        double* wall_a, double* wall_b,
                        std::vector<SkylineResult>* results_a,
                        std::vector<SkylineResult>* results_b) {
  for (std::size_t warm = 0; warm < kWarmupBatches; ++warm) {
    a.RunBatch(requests);
    b.RunBatch(requests);
  }
  double best_a = 0.0, best_b = 0.0;
  double total_a = 0.0, total_b = 0.0;
  for (std::size_t rep = 0; rep < kMaxTimedReps; ++rep) {
    // Alternate which side goes first within the pair so a position
    // effect (cache residue, decaying transients) cannot bias one side.
    QueryExecutor& first = (rep % 2 == 0) ? a : b;
    QueryExecutor& second = (rep % 2 == 0) ? b : a;
    double start = MonotonicSeconds();
    std::vector<SkylineResult> batch_first = first.RunBatch(requests);
    const double seconds_first = MonotonicSeconds() - start;
    start = MonotonicSeconds();
    std::vector<SkylineResult> batch_second = second.RunBatch(requests);
    const double seconds_second = MonotonicSeconds() - start;
    const double seconds_a = (rep % 2 == 0) ? seconds_first : seconds_second;
    const double seconds_b = (rep % 2 == 0) ? seconds_second : seconds_first;
    std::vector<SkylineResult>& batch_a =
        (rep % 2 == 0) ? batch_first : batch_second;
    std::vector<SkylineResult>& batch_b =
        (rep % 2 == 0) ? batch_second : batch_first;
    total_a += seconds_a;
    total_b += seconds_b;
    if (rep == 0 || seconds_a < best_a) best_a = seconds_a;
    if (rep == 0 || seconds_b < best_b) best_b = seconds_b;
    const bool enough = rep + 1 >= kTimedReps &&
                        total_a >= kMinTimedSeconds &&
                        total_b >= kMinTimedSeconds;
    if (enough || rep + 1 == kMaxTimedReps) {
      *results_a = std::move(batch_a);
      *results_b = std::move(batch_b);
      break;
    }
  }
  *wall_a = best_a;
  *wall_b = best_b;
}

bool SameSkyline(const SkylineResult& a, const SkylineResult& b) {
  if (!a.status.ok() || !b.status.ok()) return false;
  if (a.skyline.size() != b.skyline.size()) return false;
  for (std::size_t i = 0; i < a.skyline.size(); ++i) {
    if (a.skyline[i].object != b.skyline[i].object) return false;
    if (a.skyline[i].vector != b.skyline[i].vector) return false;
  }
  return true;
}

WorkloadReport RunOne(NetworkClass cls, const BenchEnv& env,
                      std::size_t batch) {
  WorkloadReport report;
  report.network = NetworkClassName(cls);
  report.query_count = 4;
  report.density = 0.5;

  WorkloadConfig config;
  config.network = PaperNetworkConfig(cls, env.scale, 12);
  config.object_density = report.density;
  Workload workload(config);

  std::vector<QueryRequest> requests;
  requests.reserve(batch);
  for (std::size_t i = 0; i < requests.capacity(); ++i) {
    QueryRequest request;
    request.algorithm = kAlgorithms[i % std::size(kAlgorithms)];
    request.spec =
        workload.SampleQuery(report.query_count, 100 + i / 3);
    requests.push_back(request);
  }

  // Single-threaded reference results, also warming the pools.
  std::vector<SkylineResult> oracle;
  oracle.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    oracle.push_back(
        RunSkylineQuery(request.algorithm, workload.dataset(), request.spec));
  }

  TablePrinter table({"workers", "QPS", "p50(ms)", "p99(ms)", "wall(s)",
                      "speedup", "teleQPS", "tele%", "warmQPS", "netacc-",
                      "match"});
  for (const std::size_t workers : kWorkerCounts) {
    Point point;
    point.workers = workers;
    {
      // Cold, serving configuration (default always-on telemetry) against
      // the telemetry-off baseline, as a PAIRED comparison: both executors
      // are warmed, then timed repetitions alternate between them so slow
      // ambient-load drift on a shared host hits both sides equally
      // instead of biasing whichever pass ran first. The min wall of each
      // side is the reported cost floor; their QPS delta is the always-on
      // overhead the <2% budget in ISSUE/DESIGN refers to.
      QueryExecutor executor(workload.dataset(), workers);
      obs::TelemetryConfig off_config;
      off_config.enabled = false;
      QueryExecutor executor_off(workload.dataset(), workers, off_config);

      std::vector<SkylineResult> results;
      std::vector<SkylineResult> results_off;
      double wall = 0.0;
      TimedBatchesPaired(executor, executor_off, requests, &wall,
                         &point.telemetry_off_wall_seconds, &results,
                         &results_off);
      point.qps_telemetry_off = static_cast<double>(results_off.size()) /
                                point.telemetry_off_wall_seconds;

      point.wall_seconds = wall;
      point.qps = static_cast<double>(results.size()) / wall;
      // Per-query latency distribution through the same log-bucketed
      // histogram substrate the telemetry layer exports (obs/histogram.h):
      // quantile estimates are within one log2 bucket of the exact order
      // statistic, plenty for a ms-resolution table.
      obs::Histogram latency_hist;
      for (std::size_t i = 0; i < results.size(); ++i) {
        latency_hist.Observe(static_cast<std::uint64_t>(
            std::llround(results[i].stats.total_seconds * 1e6)));
        point.cold_network_accesses += results[i].stats.network_page_accesses;
        point.matches_oracle =
            point.matches_oracle && SameSkyline(results[i], oracle[i]);
      }
      const obs::Histogram::Snapshot latencies = latency_hist.TakeSnapshot();
      point.p50_ms = latencies.Quantile(0.50) / 1e3;
      point.p99_ms = latencies.Quantile(0.99) / 1e3;
      point.speedup = report.points.empty()
                          ? 1.0
                          : report.points.front().wall_seconds / wall;
    }
    point.telemetry_overhead_pct =
        100.0 * (1.0 - point.qps / point.qps_telemetry_off);
    {
      // Warm: same batch, executor-owned cache populated by an untimed
      // pass; the timed pass resumes wavefronts and memoized distances.
      QueryExecutor executor(workload.dataset(), workers,
                             QueryCacheConfig{});
      executor.RunBatch(requests);

      const double start = MonotonicSeconds();
      const std::vector<SkylineResult> results = executor.RunBatch(requests);
      point.warm_wall_seconds = MonotonicSeconds() - start;
      point.warm_qps =
          static_cast<double>(results.size()) / point.warm_wall_seconds;
      for (std::size_t i = 0; i < results.size(); ++i) {
        point.warm_network_accesses += results[i].stats.network_page_accesses;
        point.warm_wavefront_hits +=
            results[i].stats.counters.cache_wavefront_hits;
        point.warm_memo_hits += results[i].stats.counters.cache_memo_hits;
        point.warm_matches_oracle =
            point.warm_matches_oracle && SameSkyline(results[i], oracle[i]);
      }
      point.warm_access_reduction_pct =
          point.cold_network_accesses == 0
              ? 0.0
              : 100.0 *
                    (1.0 - static_cast<double>(point.warm_network_accesses) /
                               static_cast<double>(
                                   point.cold_network_accesses));
    }
    report.points.push_back(point);

    table.AddRow({std::to_string(workers), TablePrinter::Fixed(point.qps, 1),
                  TablePrinter::Fixed(point.p50_ms, 2),
                  TablePrinter::Fixed(point.p99_ms, 2),
                  TablePrinter::Fixed(point.wall_seconds, 3),
                  TablePrinter::Fixed(point.speedup, 2),
                  TablePrinter::Fixed(point.qps_telemetry_off, 1),
                  TablePrinter::Fixed(point.telemetry_overhead_pct, 2),
                  TablePrinter::Fixed(point.warm_qps, 1),
                  TablePrinter::Fixed(point.warm_access_reduction_pct, 1),
                  point.matches_oracle && point.warm_matches_oracle ? "yes"
                                                                    : "NO"});
  }
  std::printf("-- %s (|Q|=%zu, w=%.0f%%, batch=%zu) --\n",
              report.network.c_str(), report.query_count,
              report.density * 100.0, requests.size());
  table.Print();
  std::printf("\n");
  return report;
}

void WriteJson(const std::vector<WorkloadReport>& reports,
               const BenchEnv& env, std::size_t batch, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(out, "  \"build_info\": %s,\n",
               obs::BuildInfoJson().c_str());
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", cores);
  std::fprintf(out, "  \"single_core_host\": %s,\n",
               cores <= 1 ? "true" : "false");
  std::fprintf(out, "  \"scale\": %g,\n  \"requests_per_batch\": %zu,\n",
               env.scale, batch);
  std::fprintf(out, "  \"warmup_batches\": %zu,\n  \"batches_timed\": %zu,\n",
               kWarmupBatches, kTimedReps);
  std::fprintf(out,
               "  \"note\": \"latency = per-query wall clock inside the "
               "worker (log-bucketed histogram quantiles); speedup relative "
               "to the 1-worker batch; qps vs qps_telemetry_off = always-on "
               "serving telemetry vs disabled, interleaved timed reps "
               "(>=%zu, until each side accumulates %.2fs timed), min wall "
               "each\",\n",
               kTimedReps, kMinTimedSeconds);
  std::fprintf(out, "  \"workloads\": [\n");
  for (std::size_t w = 0; w < reports.size(); ++w) {
    const WorkloadReport& report = reports[w];
    std::fprintf(out,
                 "    {\"network\": \"%s\", \"query_count\": %zu, "
                 "\"object_density\": %g, \"points\": [\n",
                 report.network.c_str(), report.query_count, report.density);
    for (std::size_t p = 0; p < report.points.size(); ++p) {
      const Point& point = report.points[p];
      std::fprintf(out,
                   "      {\"workers\": %zu, \"qps\": %.2f, \"p50_ms\": %.3f,"
                   " \"p99_ms\": %.3f, \"wall_seconds\": %.4f,"
                   " \"speedup_vs_1\": %.3f, \"results_match_oracle\": %s,"
                   " \"qps_telemetry_off\": %.2f,"
                   " \"telemetry_off_wall_seconds\": %.4f,"
                   " \"telemetry_overhead_pct\": %.2f,"
                   " \"warm_qps\": %.2f, \"warm_wall_seconds\": %.4f,"
                   " \"network_page_accesses_cold\": %llu,"
                   " \"network_page_accesses_warm\": %llu,"
                   " \"warm_access_reduction_pct\": %.1f,"
                   " \"warm_wavefront_hits\": %llu,"
                   " \"warm_memo_hits\": %llu,"
                   " \"warm_results_match_oracle\": %s}%s\n",
                   point.workers, point.qps, point.p50_ms, point.p99_ms,
                   point.wall_seconds, point.speedup,
                   point.matches_oracle ? "true" : "false",
                   point.qps_telemetry_off, point.telemetry_off_wall_seconds,
                   point.telemetry_overhead_pct, point.warm_qps,
                   point.warm_wall_seconds,
                   static_cast<unsigned long long>(point.cold_network_accesses),
                   static_cast<unsigned long long>(point.warm_network_accesses),
                   point.warm_access_reduction_pct,
                   static_cast<unsigned long long>(point.warm_wavefront_hits),
                   static_cast<unsigned long long>(point.warm_memo_hits),
                   point.warm_matches_oracle ? "true" : "false",
                   p + 1 < report.points.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", w + 1 < reports.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

void Run(const BenchEnv& env) {
  std::size_t batch = 48;
  if (const char* s = std::getenv("MSQ_THROUGHPUT_BATCH")) {
    const long value = std::atol(s);
    if (value > 0) batch = static_cast<std::size_t>(value);
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("=== Throughput: mixed CE/EDC/LBC batches via QueryExecutor "
              "===\n(scale=%.2f, batch=%zu, host cores=%u)\n\n",
              env.scale, batch, cores);
  if (cores <= 1) {
    std::fprintf(stderr,
                 "*** WARNING: hardware_concurrency() == %u — this host has "
                 "a single usable core. ***\n"
                 "*** Multi-worker points measure scheduling overhead, NOT "
                 "parallel speedup; treat the ***\n"
                 "*** speedup_vs_1 column as a no-regression check only. "
                 "Warm-vs-cold comparisons (QPS, ***\n"
                 "*** page-access reduction) remain valid — they do not "
                 "depend on core count.          ***\n\n",
                 cores);
  }

  std::vector<WorkloadReport> reports;
  reports.push_back(RunOne(NetworkClass::kCA, env, batch));
  reports.push_back(RunOne(NetworkClass::kNA, env, batch));

  const char* path = std::getenv("MSQ_THROUGHPUT_OUT");
  if (path == nullptr) path = "BENCH_throughput.json";
  if (path[0] != '\0') WriteJson(reports, env, batch, path);
}

}  // namespace
}  // namespace msq::bench

int main() {
  msq::bench::Run(msq::bench::GetBenchEnv());
  return 0;
}
