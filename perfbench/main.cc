// msq_perfbench: one named workload per process.
//
//   msq_perfbench --config workloads.json --workload <na_cold|ca_served_churn>
//                 --seed N --seconds S [--traced] [--smoke]
//                 [--span-out PATH]
//
// The workload's shape comes from its entry in the --config file.
// Untraced, it sets the workload up five times (reporting the median
// set-up time), runs one closed-loop window of S seconds, checks every
// answer, and prints the end-to-end metrics over the window's complete
// passes of the stream. With --traced it runs the
// same workload with benchmark-side spans and prints the per-layer
// metrics instead (README.md lists every row and where it comes from).
// The last line of stdout is always one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit code 1 when any answer or accounting check fails or the built
// dataset differs from its recorded sizes, 2 on bad usage or config.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runner.h"
#include "serve/socket.h"

namespace perfbench {
namespace {

using msq::MonotonicSeconds;

constexpr int kSetupRepeats = 5;
// Fewer complete passes than this in the window are too few to report.
constexpr std::size_t kMinPasses = 3;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (arg == "--config" && value(&v)) {
      options->config = v;
    } else if (arg == "--workload" && value(&v)) {
      options->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      options->seconds = std::atof(v);
    } else if (arg == "--span-out" && value(&v)) {
      options->span_out = v;
    } else if (arg == "--traced") {
      options->traced = true;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else {
      std::fprintf(stderr, "msq_perfbench: bad argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !options->config.empty() && !options->workload.empty() &&
         options->seconds > 0.0;
}

// Sends every pool entry once over `connections` parallel NDJSON
// connections (the served workload's warm-up pass). False when any reply
// is not a full answer.
bool WarmServed(std::uint16_t port, const ChurnPlan& plan,
                std::size_t connections) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      msq::StatusOr<int> conn = msq::serve::ConnectTcp("127.0.0.1", port);
      if (!conn.ok()) {
        ok = false;
        return;
      }
      const int fd = conn.value();
      (void)msq::serve::SetSocketTimeouts(fd, 30.0, 10.0);
      msq::serve::FrameReader reader(fd, 1u << 22);
      for (std::size_t e = c; e < plan.encoded.size(); e += connections) {
        const std::string line = "{" + plan.encoded[e] + "\n";
        msq::StatusOr<std::string> reply =
        msq::Status::IoError("request not sent");
        if (msq::serve::WriteAll(fd, line).ok()) reply = reader.ReadLine();
        if (!reply.ok() ||
            reply.value().find("\"status\":\"OK\",\"truncated\":false") ==
                std::string::npos) {
          ok = false;
          break;
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  return ok.load();
}

msq::serve::MutationResult ApplyMutation(Stack* stack,
                                         msq::QueryExecutor* executor,
                                         const msq::serve::ServeRequest& req) {
  msq::serve::MutationResult out;
  const std::uint64_t request =
      req.id.size() > 1 ? std::strtoull(req.id.c_str() + 1, nullptr, 10) : 0;
  ScopedSpan span("exec.QueryExecutor::SubmitExclusive", 0, request);
  const double called = MonotonicSeconds();
  double started = called;
  msq::Workload* workload = stack->workload.get();
  out.status =
      executor
          ->SubmitExclusive([&]() -> msq::Status {
            started = MonotonicSeconds();
            const msq::RoadNetwork& network = workload->network();
            switch (req.op) {
              case msq::serve::ServeOp::kUpdateEdge: {
                if (req.edge >= network.edge_count()) {
                  return msq::Status::InvalidArgument("edge out of range");
                }
                ScopedSpan m("gen.Workload::UpdateEdgeWeight", span.id(),
                             request);
                msq::StatusOr<msq::Dist> applied =
                    workload->UpdateEdgeWeight(req.edge, req.length);
                if (!applied.ok()) return applied.status();
                out.applied_length = applied.value();
                return msq::Status();
              }
              case msq::serve::ServeOp::kInsertObject: {
                if (req.edge >= network.edge_count() ||
                    req.offset > network.EdgeAt(req.edge).length) {
                  return msq::Status::InvalidArgument("bad location");
                }
                ScopedSpan m("gen.Workload::InsertObject", span.id(),
                             request);
                msq::StatusOr<msq::ObjectId> id = workload->InsertObject(
                    msq::Location{req.edge, req.offset});
                if (!id.ok()) return id.status();
                out.object = id.value();
                return msq::Status();
              }
              case msq::serve::ServeOp::kDeleteObject: {
                ScopedSpan m("gen.Workload::DeleteObject", span.id(),
                             request);
                msq::StatusOr<bool> removed =
                    workload->DeleteObject(req.object);
                if (!removed.ok()) return removed.status();
                out.removed = removed.value();
                return msq::Status();
              }
              case msq::serve::ServeOp::kQuery:
                break;
            }
            return msq::Status::InvalidArgument("not a mutation");
          })
          .get();
  out.data_epoch = workload->dataset().graph_pager->data_epoch();
  std::lock_guard<std::mutex> lock(stack->barrier_mu);
  stack->barrier_ms.push_back((started - called) * 1e3);
  return out;
}

}  // namespace

std::unique_ptr<msq::QueryExecutor> MakeExecutor(const Stack& stack,
                                                 std::size_t workers,
                                                 bool telemetry) {
  msq::obs::TelemetryConfig config;
  config.enabled = telemetry;
  if (stack.sizing.cache) {
    msq::QueryCacheConfig cache;
    cache.max_bytes = stack.sizing.cache_mb << 20;
    return std::make_unique<msq::QueryExecutor>(stack.workload->dataset(),
                                                workers, cache, config);
  }
  return std::make_unique<msq::QueryExecutor>(stack.workload->dataset(),
                                              workers, config);
}

std::unique_ptr<msq::serve::MsqServer> StartServer(
    Stack* stack, msq::QueryExecutor* executor, std::size_t event_capacity) {
  msq::serve::ServerConfig config;
  config.wide_event_capacity = event_capacity;
  config.mutation_handler = [stack,
                             executor](const msq::serve::ServeRequest& req) {
    return ApplyMutation(stack, executor, req);
  };
  auto server = std::make_unique<msq::serve::MsqServer>(executor, config);
  const msq::Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "msq_perfbench: server start: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  if (!WarmServed(server->port(), stack->plan, executor->worker_count())) {
    std::fprintf(stderr, "msq_perfbench: served warm-up failed\n");
    return nullptr;
  }
  return server;
}

void WarmExecutor(const Stack& stack, msq::QueryExecutor& executor) {
  const Pool& pool = stack.pool;
  const std::size_t n = stack.sizing.warmup_requests > 0
                            ? stack.sizing.warmup_requests
                            : pool.entries.size();
  std::vector<msq::QueryRequest> batch;
  for (std::size_t i = 0; i < n; ++i) {
    const PoolEntry& entry = pool.entries[i % pool.entries.size()];
    msq::QueryRequest request;
    request.algorithm = entry.algorithm;
    request.spec = pool.qsets[entry.qset];
    batch.push_back(std::move(request));
  }
  executor.RunBatch(std::move(batch));
}

std::unique_ptr<Stack> Setup(const Sizing& sizing, const Options& options) {
  auto stack = std::make_unique<Stack>();
  stack->sizing = sizing;
  msq::WorkloadConfig config;
  config.network = msq::PaperNetworkConfig(sizing.network, sizing.scale,
                                           sizing.network_seed);
  {
    ScopedSpan span("gen.Workload::Workload");
    stack->workload = std::make_unique<msq::Workload>(config);
  }
  stack->pool = BuildPool(sizing, *stack->workload);
  stack->executor = MakeExecutor(*stack, 1, true);
  if (!sizing.served) {
    ScopedSpan span("exec.QueryExecutor::RunBatch[warm-up]");
    WarmExecutor(*stack, *stack->executor);
    return stack;
  }
  ChurnPlan& plan = stack->plan;
  for (std::size_t e = 0; e < stack->pool.entries.size(); ++e) {
    plan.encoded.push_back(EncodeQueryLine(stack->pool, e));
  }
  const msq::RoadNetwork& network = stack->workload->network();
  for (std::size_t e = 0; e < network.edge_count(); ++e) {
    plan.original_lengths.push_back(
        network.EdgeAt(static_cast<msq::EdgeId>(e)).length);
  }
  plan.mutate_every = sizing.mutate_every;
  plan.seed = options.seed;
  ScopedSpan span("serve.MsqServer::Start[warm-up]");
  stack->server =
      StartServer(stack.get(), stack->executor.get(),
                  options.traced ? std::size_t{1} << 15
                                 : msq::obs::WideEventLog::kDefaultCapacity);
  if (stack->server == nullptr) return nullptr;
  return stack;
}

Window RunWindow(Stack& stack, msq::QueryExecutor& executor,
                 msq::serve::MsqServer* server, Stream& stream,
                 std::size_t outstanding, double seconds) {
  if (server != nullptr) {
    return RunServedWindow(server->port(), stream, stack.plan, outstanding,
                           seconds);
  }
  return RunExecutorWindow(executor, stack.pool, stream, outstanding,
                           seconds);
}

namespace {

int AlgorithmIndex(msq::Algorithm algorithm) {
  switch (algorithm) {
    case msq::Algorithm::kCe:
      return 0;
    case msq::Algorithm::kEdc:
      return 1;
    default:
      return 2;
  }
}

}  // namespace

References ComputeReferences(const Pool& pool, const msq::Dataset& dataset,
                             std::size_t threads) {
  constexpr msq::Algorithm kAlgorithms[] = {
      msq::Algorithm::kCe, msq::Algorithm::kEdc, msq::Algorithm::kLbc};
  References refs;
  const std::size_t n = pool.qsets.size() * 3;
  refs.results.resize(n);
  refs.seconds.resize(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool_threads;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool_threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        ScopedSpan span("core.RunSkylineQuery[reference]");
        const double start = MonotonicSeconds();
        refs.results[i] = msq::RunSkylineQuery(kAlgorithms[i % 3], dataset,
                                               pool.qsets[i / 3]);
        refs.seconds[i] = MonotonicSeconds() - start;
      }
    });
  }
  for (std::thread& t : pool_threads) t.join();
  return refs;
}

std::size_t References::Index(const Pool& pool, std::size_t entry) {
  const PoolEntry& e = pool.entries[entry];
  return e.qset * 3 + AlgorithmIndex(e.algorithm);
}

std::size_t CountDisagreements(const Pool& pool, const References& refs) {
  std::size_t bad = 0;
  for (std::size_t q = 0; q < pool.qsets.size(); ++q) {
    const msq::SkylineResult& ce = refs.results[q * 3];
    bool agree = true;
    for (std::size_t a = 0; a < 3; ++a) {
      const msq::SkylineResult& r = refs.results[q * 3 + a];
      agree = agree && r.status.ok() && !r.truncated &&
              SortedIds(r) == SortedIds(ce);
    }
    if (!agree) ++bad;
  }
  return bad;
}

CheckOutcome CheckExecutorSamples(const Pool& pool, const References& refs,
                                  const std::vector<const Window*>& windows) {
  CheckOutcome out;
  out.failed += CountDisagreements(pool, refs);
  for (const Window* window : windows) {
    for (const Sample& s : window->samples) {
      ++out.attempted;
      if (!s.ok) {
        ++out.failed;
      } else if (s.digest !=
                 AnswerDigest(refs.results[References::Index(pool, s.entry)])) {
        ++out.failed;
        ++out.mismatches;
      }
    }
  }
  return out;
}

CheckOutcome CheckServed(Stack& stack, const std::vector<const Window*>& windows,
                         msq::serve::MsqServer& server) {
  CheckOutcome out;
  for (const Window* window : windows) {
    for (const Sample& s : window->samples) {
      ++out.attempted;
      if (!s.ok) ++out.failed;
    }
  }
  const std::string conservation = server.admission().CheckConservation();
  if (!conservation.empty()) {
    std::fprintf(stderr, "msq_perfbench: conservation: %s\n",
                 conservation.c_str());
    ++out.failed;
    out.accounting_ok = false;
  }
  // Warm answers (through the executor's cache, twice so the second pass
  // is served from entries filled after the last write) must equal cold
  // cacheless answers on the mutated world, and the three algorithms must
  // agree.
  const References cold =
      ComputeReferences(stack.pool, stack.workload->dataset(), 1);
  out.failed += CountDisagreements(stack.pool, cold);
  for (int pass = 0; pass < 2; ++pass) {
    const References warm =
        ComputeReferences(stack.pool, stack.executor->dataset(), 1);
    for (std::size_t i = 0; i < cold.results.size(); ++i) {
      if (AnswerDigest(warm.results[i]) != AnswerDigest(cold.results[i]) ||
          !warm.results[i].status.ok()) {
        ++out.failed;
        ++out.mismatches;
      }
    }
  }
  out.references = cold;
  return out;
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ",\"attempted\":%zu,\"failed\":%zu",
                std::max<std::size_t>(attempted, 1), failed);
  line += buf;
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i > 0 ? "," : "", metrics[i].name, value, metrics[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

namespace {

int RunUntraced(const Sizing& sizing, const Options& options) {
  std::vector<double> setup_seconds;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    // Hands the freed set-up back to the OS, so that peak_rss_mb does not
    // depend on whether the next set-up's threads reuse the malloc arenas
    // that hold it.
    malloc_trim(0);
    const double start = MonotonicSeconds();
    stack = Setup(sizing, options);
    if (stack == nullptr) return 1;
    setup_seconds.push_back(MonotonicSeconds() - start);
  }
  const std::string size_error =
      CheckRecordedSizes(sizing, *stack->workload);
  if (!size_error.empty()) {
    std::fprintf(stderr, "msq_perfbench: %s\n", size_error.c_str());
    return 1;
  }
  Stream stream(&stack->pool, options.seed);
  msq::serve::MsqServer* server = stack->server.get();
  const Window window = RunWindow(*stack, *stack->executor, server, stream,
                                  1, options.seconds);
  // Peak memory of the workload: the set-ups and the window, not the
  // reference answers of the checks below.
  const double peak_rss_mb = PeakRssMb();

  CheckOutcome check;
  if (server != nullptr) {
    server->Shutdown();
    check = CheckServed(*stack, {&window}, *server);
  } else {
    const References refs =
        ComputeReferences(stack->pool, stack->workload->dataset(), 1);
    check = CheckExecutorSamples(stack->pool, refs, {&window});
  }

  const PassFigures figures =
      window.Passes(stack->pool.pass.size(), sizing.tail_quantile);
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %zu requests in %.1f s (%zu complete "
               "passes), %zu failed (%zu answer mismatches)\n",
               sizing.name.c_str(), options.seed, window.samples.size(),
               window.end - window.begin, figures.passes, check.failed,
               check.mismatches);
  if (figures.passes < kMinPasses) {
    std::fprintf(stderr, "msq_perfbench: %zu complete passes, need %zu\n",
                 figures.passes, kMinPasses);
    check.accounting_ok = false;
  }
  std::vector<Metric> metrics = {
      {"qps", figures.qps, "1/s"},
      {"p50_ms", figures.p50_ms, "ms"},
      {"tail_ms", figures.tail_ms, "ms"},
      {"setup_s", Quantile(setup_seconds, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  const bool correct =
      check.attempted > 0 && check.failed == 0 && check.accounting_ok;
  PrintResult(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  msq::serve::IgnoreSigpipe();
  // A fixed mmap threshold turns off glibc's dynamic one, which otherwise
  // moves with the order in which threads free large blocks and with it
  // peak_rss_mb by several MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: msq_perfbench --config PATH --workload NAME --seed N "
                 "--seconds S [--traced] [--smoke] [--span-out PATH]\n");
    return 2;
  }
  Sizing sizing;
  std::string error;
  if (!LoadSizing(options.config, options.workload, options.smoke, &sizing,
                  &error)) {
    std::fprintf(stderr, "msq_perfbench: %s\n", error.c_str());
    return 2;
  }
  if (options.traced) return RunTraced(sizing, options);
  return RunUntraced(sizing, options);
}
