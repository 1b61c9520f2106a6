// The --traced run: the same workload with benchmark-side spans, split into
// per-layer rows. Every row comes from a public function of the layer it
// names: buffer-pool statistics, registry counters, cache statistics,
// SkylineResult timestamps, the server's wide events, or a timed loop over
// one public call. README.md maps each row to the end-to-end metric and
// workload it should move.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "graph/dijkstra.h"
#include "obs/metrics.h"
#include "runner.h"
#include "serve/request.h"

namespace perfbench {
namespace {

using msq::MonotonicSeconds;

constexpr double kMicroSeconds = 0.1;  // minimum timed span per micro loop

// Results of the timed calls land here so the loops cannot be optimized
// away.
volatile std::size_t g_sink = 0;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Registry and pool counters sampled around the traced window.
struct Counters {
  msq::BufferStats graph;
  msq::BufferStats index;
  std::uint64_t settled = 0;
  std::uint64_t dominance_tests = 0;
  std::uint64_t dominance_avoided = 0;
  std::uint64_t bound_pruned = 0;
  std::uint64_t bound_examined = 0;
  msq::QueryCache::Stats cache;

  static Counters Take(Stack& stack) {
    msq::obs::MetricsRegistry& registry = msq::obs::GlobalMetrics();
    namespace m = msq::obs::metric;
    Counters c;
    c.graph = stack.workload->graph_buffer().stats();
    c.index = stack.workload->index_buffer().stats();
    c.settled = registry.counter(m::kSettledNodes)->value();
    c.dominance_tests = registry.counter(m::kDominanceTests)->value();
    c.dominance_avoided = registry.counter(m::kDominanceAvoided)->value();
    c.bound_pruned = registry.counter(m::kBoundPruned)->value();
    c.bound_examined = registry.counter(m::kBoundExamined)->value();
    if (stack.executor->cache() != nullptr) {
      c.cache = stack.executor->cache()->stats();
    }
    return c;
  }
};

// Times `body` (which performs `per_call` calls per invocation) until at
// least kMicroSeconds elapsed; returns ns per call.
template <typename Body>
double TimePerCall(const char* span_name, std::size_t per_call, Body&& body) {
  ScopedSpan span(span_name);
  std::size_t calls = 0;
  const double start = MonotonicSeconds();
  double elapsed = 0.0;
  do {
    body();
    calls += per_call;
    elapsed = MonotonicSeconds() - start;
  } while (elapsed < kMicroSeconds);
  return Ratio(elapsed * 1e9, static_cast<double>(calls));
}

struct ServedStages {
  std::vector<double> queue, parse, execute, serialize, write, total;
  std::map<std::uint64_t, double> total_by_request;
};

// Wide events of the query requests whose ids are in `requests`.
ServedStages CollectStages(const msq::serve::MsqServer& server,
                           const std::set<std::uint64_t>& requests) {
  ServedStages out;
  for (const msq::obs::WideEvent& e : server.wide_events().Snapshot()) {
    if (e.request_id.size() < 2 || e.outcome != "completed") continue;
    const std::uint64_t id =
        std::strtoull(e.request_id.c_str() + 1, nullptr, 10);
    if (requests.count(id) == 0) continue;
    msq::Algorithm algorithm;
    if (!msq::ParseAlgorithm(e.algorithm, &algorithm)) continue;  // a write
    out.queue.push_back(e.queue_ms);
    out.parse.push_back(e.parse_ms);
    out.execute.push_back(e.execute_ms);
    out.serialize.push_back(e.serialize_ms);
    out.write.push_back(e.write_ms);
    out.total.push_back(e.total_ms);
    out.total_by_request[id] = e.total_ms;
  }
  return out;
}

std::set<std::uint64_t> RequestIds(const Window& window) {
  std::set<std::uint64_t> ids;
  for (const Sample& s : window.samples) {
    if (!s.mutation) ids.insert(s.request);
  }
  return ids;
}

// Median execute time (ms) of a window's queries: SkylineResult
// timestamps for the executor, wide events for the server.
double MedianRunMs(const Window& window,
                   const msq::serve::MsqServer* server) {
  if (server != nullptr) {
    return Quantile(CollectStages(*server, RequestIds(window)).execute, 0.5);
  }
  std::vector<double> run;
  for (const Sample& s : window.samples) {
    run.push_back((s.exec_finish - s.exec_start) * 1e3);
  }
  return Quantile(run, 0.5);
}

// Executor-level query stream for the telemetry on/off pairs: the pool's
// queries without writes, so both sides do identical work. The windows are
// appended to `windows` for the answer checks.
double TelemetryOverheadPct(Stack& stack, const Options& options,
                            std::deque<Window>* windows) {
  std::unique_ptr<msq::QueryExecutor> on = MakeExecutor(stack, 1, true);
  std::unique_ptr<msq::QueryExecutor> off = MakeExecutor(stack, 1, false);
  WarmExecutor(stack, *on);
  WarmExecutor(stack, *off);
  const double slot = std::max(0.25, options.seconds / 40.0);
  double done_on = 0.0, done_off = 0.0, time_on = 0.0, time_off = 0.0;
  Stream stream(&stack.pool, options.seed + 7);
  for (int pair = 0; pair < 6; ++pair) {
    for (int side = 0; side < 2; ++side) {
      const bool use_on = (pair + side) % 2 == 0;
      windows->push_back(RunExecutorWindow(use_on ? *on : *off, stack.pool,
                                           stream, 1, slot));
      const Window& w = windows->back();
      (use_on ? done_on : done_off) += w.Qps() * (w.end - w.begin);
      (use_on ? time_on : time_off) += w.end - w.begin;
    }
  }
  const double qps_on = Ratio(done_on, time_on);
  const double qps_off = Ratio(done_off, time_off);
  return (Ratio(qps_off, qps_on) - 1.0) * 100.0;
}

// Runs the stream for about a second while a side thread submits no-op
// exclusive jobs every 50 ms; returns each job's wait for the barrier (ms).
// The stream's window is appended to `windows`.
std::vector<double> ProbeBarrier(Stack& stack, const Options& options,
                                 std::deque<Window>* windows) {
  std::vector<double> waits;
  std::atomic<bool> stop{false};
  std::thread prober([&] {
    while (!stop.load()) {
      ScopedSpan span("exec.QueryExecutor::SubmitExclusive[probe]");
      const double called = MonotonicSeconds();
      double started = called;
      stack.executor
          ->SubmitExclusive([&started] {
            started = MonotonicSeconds();
            return msq::Status();
          })
          .get();
      waits.push_back((started - called) * 1e3);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  Stream stream(&stack.pool, options.seed + 11);
  windows->push_back(RunExecutorWindow(*stack.executor, stack.pool, stream, 1,
                                       std::max(0.3, options.seconds / 20.0)));
  stop = true;
  prober.join();
  return waits;
}

struct Micro {
  double fetch_hit_ns = 0, fetch_miss_ns = 0, adjacency_ns = 0,
         settle_ns = 0, dominance_ns = 0, probe_ns = 0, parse_us = 0,
         encode_us = 0, update_edge_ms = 0, insert_ms = 0, delete_ms = 0;
};

void MicroStorage(Stack& stack, Micro* out) {
  msq::BufferManager& buffer = stack.workload->graph_buffer();
  const std::vector<msq::PageId>& pages =
      stack.workload->dataset().graph_pager->pages();
  const std::size_t n =
      std::min(pages.size(), std::max<std::size_t>(1, buffer.frame_count() / 4));
  auto fetch_all = [&] {
    for (std::size_t i = 0; i < n; ++i) (void)buffer.Fetch(pages[i]);
  };
  fetch_all();
  out->fetch_hit_ns =
      TimePerCall("storage.BufferManager::Fetch[hit]", n, fetch_all);
  ScopedSpan span("storage.BufferManager::Fetch[miss]");
  double elapsed = 0.0;
  std::size_t calls = 0;
  while (elapsed < kMicroSeconds) {
    (void)buffer.Clear();
    const double start = MonotonicSeconds();
    fetch_all();
    elapsed += MonotonicSeconds() - start;
    calls += n;
  }
  out->fetch_miss_ns = Ratio(elapsed * 1e9, static_cast<double>(calls));
}

void MicroGraph(Stack& stack, Micro* out) {
  const msq::GraphPager* pager = stack.workload->dataset().graph_pager;
  const std::size_t nodes = stack.workload->network().node_count();
  std::vector<msq::AdjacencyEntry> adjacency;
  out->adjacency_ns =
      TimePerCall("graph.GraphPager::AdjacencyOf", nodes, [&] {
        for (std::size_t v = 0; v < nodes; ++v) {
          (void)pager->AdjacencyOf(static_cast<msq::NodeId>(v), &adjacency);
        }
      });
  ScopedSpan span("graph.DijkstraSearch::NextSettled");
  constexpr std::size_t kSettlesPerSource = 4000;
  std::size_t settles = 0;
  double elapsed = 0.0;
  for (std::size_t round = 0; elapsed < kMicroSeconds; ++round) {
    const msq::SkylineQuerySpec& spec =
        stack.pool.qsets[round % stack.pool.qsets.size()];
    msq::DijkstraSearch search(pager,
                               spec.sources[round % spec.sources.size()]);
    const double start = MonotonicSeconds();
    for (std::size_t i = 0; i < kSettlesPerSource; ++i) {
      if (!search.NextSettled().has_value()) break;
      ++settles;
    }
    elapsed += MonotonicSeconds() - start;
  }
  out->settle_ns = Ratio(elapsed * 1e9, static_cast<double>(settles));
}

void MicroCore(Stack& stack, const References& refs, Micro* out) {
  // Recorded vectors: every pair of skyline vectors of one answer.
  std::vector<std::pair<const msq::DistVector*, const msq::DistVector*>>
      pairs;
  for (const msq::SkylineResult& r : refs.results) {
    for (const msq::SkylineEntry& a : r.skyline) {
      for (const msq::SkylineEntry& b : r.skyline) {
        pairs.emplace_back(&a.vector, &b.vector);
      }
    }
  }
  out->dominance_ns =
      TimePerCall("core.Dominates", pairs.size(), [&] {
        for (const auto& [a, b] : pairs) g_sink = msq::Dominates(*a, *b);
      });

  // Distances recorded from the answers, probed in a private cache.
  msq::QueryCache cache;
  std::vector<std::pair<msq::Location, msq::ObjectId>> keys;
  for (std::size_t i = 0; i < refs.results.size(); ++i) {
    const msq::SkylineQuerySpec& spec = stack.pool.qsets[i / 3];
    for (const msq::SkylineEntry& e : refs.results[i].skyline) {
      for (std::size_t s = 0; s < spec.sources.size(); ++s) {
        cache.StoreDistance(spec.sources[s], e.object, e.vector[s]);
        keys.emplace_back(spec.sources[s], e.object);
      }
    }
  }
  out->probe_ns =
      TimePerCall("cache.QueryCache::FindDistance", keys.size(), [&] {
        for (const auto& [source, object] : keys) {
          g_sink = cache.FindDistance(source, object).has_value();
        }
      });
}

void MicroServe(Stack& stack, const References& refs, Micro* out) {
  std::vector<std::string> lines;
  for (std::size_t e = 0; e < stack.pool.entries.size(); ++e) {
    lines.push_back("{\"id\":\"r1\"," + EncodeQueryLine(stack.pool, e));
  }
  out->parse_us =
      TimePerCall("serve.ParseServeRequestText", lines.size(), [&] {
        for (const std::string& line : lines) {
          if (!msq::serve::ParseServeRequestText(line).ok()) std::abort();
        }
      }) /
      1e3;
  msq::serve::ServeRequest request;
  request.id = "r1";
  out->encode_us =
      TimePerCall("serve.EncodeResultResponse", refs.results.size(), [&] {
        for (const msq::SkylineResult& r : refs.results) {
          g_sink = msq::serve::EncodeResultResponse(request, r,
                                                    r.skyline.size(), 0.5, 1.5)
                       .size();
        }
      }) /
      1e3;
}

// Times the dynamic-world mutators directly on the workload; runs last
// (after every answer check), with the executor idle.
void MicroWorld(Stack& stack, const Options& options, Micro* out) {
  msq::Workload& workload = *stack.workload;
  const msq::RoadNetwork& network = workload.network();
  msq::Rng rng(options.seed + 101);
  const std::size_t rounds = options.smoke ? 3 : 12;
  std::vector<double> update, insert, remove;
  for (std::size_t i = 0; i < rounds; ++i) {
    const msq::EdgeId edge =
        static_cast<msq::EdgeId>(rng.NextBounded(network.edge_count()));
    const double length = network.EdgeAt(edge).length;
    double start = MonotonicSeconds();
    {
      ScopedSpan span("gen.Workload::UpdateEdgeWeight");
      (void)workload.UpdateEdgeWeight(edge, length * 1.1);
    }
    update.push_back((MonotonicSeconds() - start) * 1e3);
    start = MonotonicSeconds();
    msq::StatusOr<msq::ObjectId> id = msq::Status::Internal("unset");
    {
      ScopedSpan span("gen.Workload::InsertObject");
      id = workload.InsertObject(msq::Location{edge, 0.5 * length});
    }
    insert.push_back((MonotonicSeconds() - start) * 1e3);
    if (!id.ok()) continue;
    start = MonotonicSeconds();
    {
      ScopedSpan span("gen.Workload::DeleteObject");
      (void)workload.DeleteObject(id.value());
    }
    remove.push_back((MonotonicSeconds() - start) * 1e3);
  }
  out->update_edge_ms = Quantile(update, 0.5);
  out->insert_ms = Quantile(insert, 0.5);
  out->delete_ms = Quantile(remove, 0.5);
}

double MedianSeconds(const References& refs, std::size_t algorithm) {
  std::vector<double> ms;
  for (std::size_t i = algorithm; i < refs.seconds.size(); i += 3) {
    ms.push_back(refs.seconds[i] * 1e3);
  }
  return Quantile(ms, 0.5);
}

}  // namespace

int RunTraced(const Sizing& sizing, const Options& options) {
  std::unique_ptr<Stack> stack = Setup(sizing, options);
  if (stack == nullptr) return 1;
  const std::string size_error =
      CheckRecordedSizes(sizing, *stack->workload);
  if (!size_error.empty()) {
    std::fprintf(stderr, "msq_perfbench: %s\n", size_error.c_str());
    return 1;
  }
  msq::serve::MsqServer* server = stack->server.get();
  // Window lengths as shares of --seconds; with the set-up, the checks and
  // the timed loops the traced run takes about 1.1 x --seconds + 15 s.
  const double part = options.seconds * 0.3;

  // (a) untraced window at one worker and one client, (b) the same
  // stream at speedup_workers workers and as many outstanding requests,
  // (c) telemetry on/off pairs. Spans stay off.
  // Every window of the run, for the answer checks. A deque, so the
  // references below survive later push_backs.
  std::deque<Window> windows;
  Stream stream(&stack->pool, options.seed);
  windows.push_back(
      RunWindow(*stack, *stack->executor, server, stream, 1, part));
  const Window& untraced = windows.back();
  double many_qps = 0.0, many_run_ms = 0.0;
  {
    std::unique_ptr<msq::QueryExecutor> many =
        MakeExecutor(*stack, sizing.speedup_workers, true);
    std::unique_ptr<msq::serve::MsqServer> many_server;
    if (server != nullptr) {
      many_server = StartServer(stack.get(), many.get(), std::size_t{1} << 15);
      if (many_server == nullptr) return 1;
    } else {
      WarmExecutor(*stack, *many);
    }
    Stream many_stream(&stack->pool, options.seed + 3);
    windows.push_back(RunWindow(*stack, *many, many_server.get(), many_stream,
                                sizing.speedup_workers,
                                options.seconds * 0.2));
    const Window& w = windows.back();
    many_qps = w.Qps();
    many_run_ms = MedianRunMs(w, many_server.get());
    if (many_server != nullptr) many_server->Shutdown();
  }
  const double telemetry_pct =
      TelemetryOverheadPct(*stack, options, &windows);

  // (d) the traced window.
  Spans::Enable(true);
  {
    std::lock_guard<std::mutex> lock(stack->barrier_mu);
    stack->barrier_ms.clear();
  }
  const Counters before = Counters::Take(*stack);
  windows.push_back(
      RunWindow(*stack, *stack->executor, server, stream, 1, part));
  const Window& traced = windows.back();
  const Counters after = Counters::Take(*stack);
  const double cache_mb =
      stack->executor->cache() != nullptr
          ? static_cast<double>(stack->executor->cache()->bytes()) / 1048576.0
          : 0.0;

  std::vector<double> barrier_ms;
  if (server == nullptr) {
    barrier_ms = ProbeBarrier(*stack, options, &windows);
  } else {
    std::lock_guard<std::mutex> lock(stack->barrier_mu);
    barrier_ms = stack->barrier_ms;
  }

  // Answer checks over every window of the run.
  std::vector<const Window*> all;
  for (const Window& w : windows) all.push_back(&w);
  CheckOutcome check;
  References refs;
  if (server != nullptr) {
    server->Shutdown();
    check = CheckServed(*stack, all, *server);
    refs = check.references;
  } else {
    refs = ComputeReferences(stack->pool, stack->workload->dataset(), 1);
    check = CheckExecutorSamples(stack->pool, refs, all);
  }

  // Counts per query over the traced window.
  std::size_t queries = 0, writes = 0, net_pages = 0;
  for (const Sample& s : traced.samples) {
    (s.mutation ? writes : queries) += 1;
    net_pages += s.stats.network_pages;
  }
  const double q = static_cast<double>(std::max<std::size_t>(queries, 1));
  const double graph_accesses = static_cast<double>(
      after.graph.accesses() - before.graph.accesses());
  const double graph_misses =
      static_cast<double>(after.graph.misses - before.graph.misses);
  const double index_accesses = static_cast<double>(
      after.index.accesses() - before.index.accesses());
  const double index_misses =
      static_cast<double>(after.index.misses - before.index.misses);
  const double settled = static_cast<double>(after.settled - before.settled);
  const double tests =
      static_cast<double>(after.dominance_tests - before.dominance_tests);
  const double avoided =
      static_cast<double>(after.dominance_avoided - before.dominance_avoided);
  const double pruned =
      static_cast<double>(after.bound_pruned - before.bound_pruned);
  const double examined =
      static_cast<double>(after.bound_examined - before.bound_examined);
  const double memo_hits =
      static_cast<double>(after.cache.memo_hits - before.cache.memo_hits);
  const double memo_misses =
      static_cast<double>(after.cache.memo_misses - before.cache.memo_misses);
  const double wf_hits = static_cast<double>(after.cache.wavefront_hits -
                                             before.cache.wavefront_hits);
  const double wf_misses = static_cast<double>(after.cache.wavefront_misses -
                                               before.cache.wavefront_misses);
  const double cache_drops =
      static_cast<double>(after.cache.evictions - before.cache.evictions);

  // Queue/run split: SkylineResult timestamps (executor) or the server's
  // wide events (served), plus the served stage medians.
  double queue_ms = 0.0, run_ms = 0.0;
  double s_queue = 0, s_parse = 0, s_execute = 0, s_serialize = 0,
         s_write = 0, client_gap = 0, overhead_frac = 0;
  if (server != nullptr) {
    const ServedStages stages = CollectStages(*server, RequestIds(traced));
    s_queue = Quantile(stages.queue, 0.5);
    s_parse = Quantile(stages.parse, 0.5);
    s_execute = Quantile(stages.execute, 0.5);
    s_serialize = Quantile(stages.serialize, 0.5);
    s_write = Quantile(stages.write, 0.5);
    queue_ms = s_queue;
    run_ms = s_execute;
    std::vector<double> gaps;
    double client_total = 0.0, execute_total = 0.0;
    for (const Sample& s : traced.samples) {
      auto it = stages.total_by_request.find(s.request);
      if (s.mutation || it == stages.total_by_request.end()) continue;
      gaps.push_back((s.done - s.submit) * 1e3 - it->second);
      client_total += (s.done - s.submit) * 1e3;
    }
    for (double e : stages.execute) execute_total += e;
    client_gap = Quantile(gaps, 0.5);
    overhead_frac = 1.0 - Ratio(execute_total, client_total);
  } else {
    std::vector<double> waits, runs;
    for (const Sample& s : traced.samples) {
      waits.push_back((s.exec_start - s.submit) * 1e3);
      runs.push_back((s.exec_finish - s.exec_start) * 1e3);
    }
    queue_ms = Quantile(waits, 0.5);
    run_ms = Quantile(runs, 0.5);
  }
  const double untraced_run_ms = MedianRunMs(untraced, server);

  Micro micro;
  MicroStorage(*stack, &micro);
  MicroGraph(*stack, &micro);
  MicroCore(*stack, refs, &micro);
  MicroServe(*stack, refs, &micro);
  MicroWorld(*stack, options, &micro);

  double candidates = 0.0;
  for (const msq::SkylineResult& r : refs.results) {
    candidates += static_cast<double>(r.stats.candidate_count);
  }
  candidates = Ratio(candidates, static_cast<double>(refs.results.size()));

  // Attribution: counts per query times the unit costs measured above,
  // against the median run time. settle_ns already covers the adjacency
  // reads of pool-resident pages; misses add their extra cost.
  const double index_miss_ratio = Ratio(index_misses, index_accesses);
  const double explained_ns =
      settled / q * micro.settle_ns +
      graph_misses / q * std::max(0.0, micro.fetch_miss_ns - micro.fetch_hit_ns) +
      index_accesses / q *
          (index_miss_ratio * micro.fetch_miss_ns +
           (1.0 - index_miss_ratio) * micro.fetch_hit_ns) +
      tests / q * micro.dominance_ns +
      (memo_hits + memo_misses + wf_hits + wf_misses) / q * micro.probe_ns;
  const double other_frac = 1.0 - Ratio(explained_ns, run_ms * 1e6);

  const double traced_qps = traced.Qps();
  const double untraced_qps = untraced.Qps();
  std::vector<Metric> metrics = {
      {"net_pages_per_query",
       server != nullptr ? graph_misses / q
                         : static_cast<double>(net_pages) / q,
       "pages"},
      {"failed_frac",
       Ratio(static_cast<double>(check.failed),
             static_cast<double>(check.attempted)),
       "fraction"},
      {"storage.fetches_per_query", graph_accesses / q, "count"},
      {"storage.miss_ratio", Ratio(graph_misses, graph_accesses), "ratio"},
      {"storage.evictions_per_query",
       static_cast<double>(after.graph.evictions - before.graph.evictions) / q,
       "count"},
      {"storage.fetch_hit_ns", micro.fetch_hit_ns, "ns"},
      {"storage.fetch_miss_ns", micro.fetch_miss_ns, "ns"},
      {"index.fetches_per_query", index_accesses / q, "count"},
      {"index.miss_ratio", index_miss_ratio, "ratio"},
      {"graph.settled_per_query", settled / q, "count"},
      {"graph.adjacency_ns", micro.adjacency_ns, "ns"},
      {"graph.settle_ns", micro.settle_ns, "ns"},
      {"core.dominance_tests_per_query", tests / q, "count"},
      {"core.dominance_avoided_ratio", Ratio(avoided, tests + avoided),
       "ratio"},
      {"core.dominance_ns", micro.dominance_ns, "ns"},
      {"core.bound_pruned_ratio", Ratio(pruned, pruned + examined), "ratio"},
      {"core.candidates_per_query", candidates, "count"},
      {"core.ce_ms", MedianSeconds(refs, 0), "ms"},
      {"core.edc_ms", MedianSeconds(refs, 1), "ms"},
      {"core.lbc_ms", MedianSeconds(refs, 2), "ms"},
      {"cache.memo_hit_ratio", Ratio(memo_hits, memo_hits + memo_misses),
       "ratio"},
      {"cache.wavefront_hit_ratio", Ratio(wf_hits, wf_hits + wf_misses),
       "ratio"},
      {"cache.probe_ns", micro.probe_ns, "ns"},
      {"cache.bytes_mb", cache_mb, "MB"},
      {"cache.invalidations_per_write",
       Ratio(cache_drops, static_cast<double>(writes)), "count"},
      {"exec.queue_wait_ms", queue_ms, "ms"},
      {"exec.run_ms", run_ms, "ms"},
      {"exec.speedup", Ratio(many_qps, untraced_qps), "x"},
      {"exec.run_inflation", Ratio(many_run_ms, untraced_run_ms), "x"},
      {"exec.barrier_ms", Quantile(barrier_ms, 0.5), "ms"},
      {"serve.queue_ms", s_queue, "ms"},
      {"serve.parse_ms", s_parse, "ms"},
      {"serve.execute_ms", s_execute, "ms"},
      {"serve.serialize_ms", s_serialize, "ms"},
      {"serve.write_ms", s_write, "ms"},
      {"serve.client_gap_ms", client_gap, "ms"},
      {"serve.overhead_frac", overhead_frac, "fraction"},
      {"serve.parse_us", micro.parse_us, "us"},
      {"serve.encode_us", micro.encode_us, "us"},
      {"world.update_edge_ms", micro.update_edge_ms, "ms"},
      {"world.insert_ms", micro.insert_ms, "ms"},
      {"world.delete_ms", micro.delete_ms, "ms"},
      {"obs.telemetry_overhead_pct", telemetry_pct, "%"},
      {"obs.trace_overhead_pct",
       (Ratio(untraced_qps, traced_qps) - 1.0) * 100.0, "%"},
      {"attrib.other_frac", other_frac, "fraction"},
  };

  Spans::Enable(false);
  bool spans_ok = true;
  if (!options.span_out.empty()) {
    spans_ok = Spans::Write(options.span_out, sizing.name, options.seed);
    if (!spans_ok) {
      std::fprintf(stderr, "msq_perfbench: cannot write %s\n",
                   options.span_out.c_str());
    }
  }
  std::fprintf(stderr,
               "%s seed %" PRIu64 " traced: %zu + %zu requests, %zu failed "
               "(%zu answer mismatches), %zu spans\n",
               sizing.name.c_str(), options.seed, untraced.samples.size(),
               traced.samples.size(), check.failed, check.mismatches,
               Spans::Snapshot().size());
  const bool correct = check.attempted > 0 && check.failed == 0 &&
                       check.accounting_ok && spans_ok;
  PrintResult(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
