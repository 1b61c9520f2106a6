// Storage-layout ablation (DESIGN.md §15): cold I/O and latency of the
// seed layout (Morton-ordered row pages) vs Hilbert node relabeling vs
// Hilbert + CSR-compressed adjacency pages, on the paper's CA network.
//
// Every point runs the same query set through CE with cold buffers per
// query and checks the skyline byte-for-byte against the seed layout's
// results (which are themselves cross-checked against LBC), so a layout
// bug can never masquerade as a speedup. The "pages" figure of merit is
// QueryStats::network_pages — buffer MISSES, the paper's "disk pages
// accessed" of Figures 5 and 6.
//
// Environment:
//   MSQ_BENCH_SCALE     scale of the CA dataset (default 1.0 = the
//                       paper's 3,044 nodes / 3,607 edges)
//   MSQ_LAYOUT_QUERIES  queries per point (default 20)
//   MSQ_LAYOUT_OUT      JSON output path (default BENCH_layout.json)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_support/table.h"
#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "obs/build_info.h"
#include "obs/histogram.h"

using namespace msq;

namespace {

constexpr std::size_t kSources = 4;
constexpr double kDensity = 0.5;
constexpr std::uint64_t kQuerySeedBase = 100;

struct LayoutEnv {
  double scale = 1.0;
  std::size_t queries = 20;
  std::string out = "BENCH_layout.json";
};

LayoutEnv GetLayoutEnv() {
  LayoutEnv env;
  if (const char* s = std::getenv("MSQ_BENCH_SCALE")) {
    env.scale = std::atof(s);
    if (env.scale <= 0.0) env.scale = 1.0;
  }
  if (const char* s = std::getenv("MSQ_LAYOUT_QUERIES")) {
    const long n = std::atol(s);
    if (n > 0) env.queries = static_cast<std::size_t>(n);
  }
  if (const char* s = std::getenv("MSQ_LAYOUT_OUT")) env.out = s;
  return env;
}

struct AblationPoint {
  std::string layout;
  std::size_t graph_pages_total = 0;
  double pages_per_query = 0.0;      // cold buffer misses (the paper metric)
  double accesses_per_query = 0.0;   // every buffer lookup (hits + misses)
  double settled_per_query = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double page_reduction_vs_seed_pct = 0.0;
  bool results_match_oracle = true;
};

bool SameSkyline(const SkylineResult& a, const SkylineResult& b) {
  if (!a.status.ok() || !b.status.ok()) return false;
  if (a.skyline.size() != b.skyline.size()) return false;
  for (std::size_t i = 0; i < a.skyline.size(); ++i) {
    if (a.skyline[i].object != b.skyline[i].object) return false;
    if (a.skyline[i].vector != b.skyline[i].vector) return false;
  }
  return true;
}

// Order-insensitive comparison for the cross-ALGORITHM anchor: CE and LBC
// emit the same skyline set in different orders.
bool SameSkylineSet(const SkylineResult& a, const SkylineResult& b) {
  if (!a.status.ok() || !b.status.ok()) return false;
  auto sorted = [](const SkylineResult& r) {
    std::vector<SkylineEntry> entries = r.skyline;
    std::sort(entries.begin(), entries.end(),
              [](const SkylineEntry& x, const SkylineEntry& y) {
                return x.object < y.object;
              });
    return entries;
  };
  const std::vector<SkylineEntry> sa = sorted(a);
  const std::vector<SkylineEntry> sb = sorted(b);
  if (sa.size() != sb.size()) return false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].object != sb[i].object || sa[i].vector != sb[i].vector) {
      return false;
    }
  }
  return true;
}

// Runs the query set cold (buffers reset per query) through CE and fills
// the I/O + latency columns of `point`. `oracle` is the seed layout's
// results.
void MeasurePoint(Workload& workload,
                  const std::vector<SkylineQuerySpec>& specs,
                  const std::vector<SkylineResult>& oracle,
                  AblationPoint* point) {
  point->graph_pages_total = workload.dataset().graph_pager->page_count();
  std::uint64_t pages = 0;
  std::uint64_t accesses = 0;
  std::uint64_t settled = 0;
  double wall = 0.0;
  obs::Histogram latency_hist;
  for (std::size_t q = 0; q < specs.size(); ++q) {
    workload.ResetBuffers();
    const SkylineResult result =
        RunSkylineQuery(Algorithm::kCe, workload.dataset(), specs[q]);
    pages += result.stats.network_pages;
    accesses += result.stats.network_page_accesses;
    settled += result.stats.counters.settled_nodes;
    wall += result.stats.total_seconds;
    latency_hist.Observe(static_cast<std::uint64_t>(
        std::llround(result.stats.total_seconds * 1e6)));
    point->results_match_oracle =
        point->results_match_oracle && SameSkyline(result, oracle[q]);
  }
  const double n = static_cast<double>(specs.size());
  point->pages_per_query = static_cast<double>(pages) / n;
  point->accesses_per_query = static_cast<double>(accesses) / n;
  point->settled_per_query = static_cast<double>(settled) / n;
  point->qps = wall > 0.0 ? n / wall : 0.0;
  const obs::Histogram::Snapshot latencies = latency_hist.TakeSnapshot();
  point->p50_ms = latencies.Quantile(0.50) / 1e3;
  point->p99_ms = latencies.Quantile(0.99) / 1e3;
}

void WriteJson(const LayoutEnv& env, const std::vector<AblationPoint>& points) {
  std::FILE* out = std::fopen(env.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", env.out.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"layout_ablation\",\n");
  std::fprintf(out, "  \"build_info\": %s,\n", obs::BuildInfoJson().c_str());
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"network\": \"CA\",\n  \"scale\": %g,\n", env.scale);
  std::fprintf(out, "  \"queries\": %zu,\n  \"sources_per_query\": %zu,\n",
               env.queries, kSources);
  std::fprintf(out,
               "  \"note\": \"pages = cold network buffer misses per query "
               "(the paper's disk-pages-accessed metric); every point's "
               "skyline checked byte-for-byte against the seed layout's "
               "CE (itself cross-checked against LBC)\",\n");
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const AblationPoint& p = points[i];
    std::fprintf(
        out,
        "    {\"layout\": \"%s\",\n"
        "     \"graph_pages_total\": %zu, \"pages_per_query\": %.2f, "
        "\"accesses_per_query\": %.2f, \"settled_per_query\": %.2f,\n"
        "     \"qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f,\n"
        "     \"page_reduction_vs_seed_pct\": %.2f, "
        "\"results_match_oracle\": %s}%s\n",
        p.layout.c_str(), p.graph_pages_total, p.pages_per_query,
        p.accesses_per_query, p.settled_per_query, p.qps, p.p50_ms, p.p99_ms,
        p.page_reduction_vs_seed_pct, p.results_match_oracle ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", env.out.c_str());
}

}  // namespace

int main() {
  const LayoutEnv env = GetLayoutEnv();
  std::printf("=== layout ablation: CA x %.2f, %zu queries, |Q|=%zu ===\n",
              env.scale, env.queries, kSources);

  auto make_workload = [&env](GraphLayout layout) {
    WorkloadConfig config;
    config.network = PaperNetworkConfig(NetworkClass::kCA, env.scale,
                                        /*seed=*/12);
    config.graph_layout = layout;
    config.object_density = kDensity;
    return std::make_unique<Workload>(config);
  };

  // One query set, sampled once: SampleQuery is edge-keyed, so the same
  // seeds give the same queries on every layout.
  auto seed_workload = make_workload(GraphLayout::kSeed);
  std::vector<SkylineQuerySpec> specs;
  specs.reserve(env.queries);
  for (std::size_t q = 0; q < env.queries; ++q) {
    specs.push_back(seed_workload->SampleQuery(kSources, kQuerySeedBase + q));
  }

  // Seed-layout CE is the oracle; anchor it against LBC so the oracle
  // itself is not a single-algorithm artifact.
  std::vector<SkylineResult> oracle;
  oracle.reserve(specs.size());
  bool oracle_anchored = true;
  for (const SkylineQuerySpec& spec : specs) {
    seed_workload->ResetBuffers();
    oracle.push_back(
        RunSkylineQuery(Algorithm::kCe, seed_workload->dataset(), spec));
    seed_workload->ResetBuffers();
    const SkylineResult lbc =
        RunSkylineQuery(Algorithm::kLbc, seed_workload->dataset(), spec);
    oracle_anchored = oracle_anchored && SameSkylineSet(oracle.back(), lbc);
  }
  if (!oracle_anchored) {
    std::fprintf(stderr, "oracle anchoring FAILED: CE != LBC on seed\n");
    return 1;
  }

  std::vector<AblationPoint> points;
  for (const GraphLayout layout :
       {GraphLayout::kSeed, GraphLayout::kHilbert, GraphLayout::kHilbertCsr}) {
    auto workload = layout == GraphLayout::kSeed ? std::move(seed_workload)
                                                 : make_workload(layout);
    AblationPoint point;
    point.layout = GraphLayoutName(layout);
    MeasurePoint(*workload, specs, oracle, &point);
    if (!points.empty()) {
      point.page_reduction_vs_seed_pct =
          100.0 * (1.0 - point.pages_per_query / points[0].pages_per_query);
    }
    points.push_back(std::move(point));
  }

  TablePrinter table({"layout", "pages/q", "acc/q", "QPS", "p50(ms)",
                      "p99(ms)", "reduc%", "match"});
  for (const AblationPoint& p : points) {
    table.AddRow({p.layout, TablePrinter::Fixed(p.pages_per_query, 1),
                  TablePrinter::Fixed(p.accesses_per_query, 1),
                  TablePrinter::Fixed(p.qps, 1),
                  TablePrinter::Fixed(p.p50_ms, 3),
                  TablePrinter::Fixed(p.p99_ms, 3),
                  TablePrinter::Fixed(p.page_reduction_vs_seed_pct, 1),
                  p.results_match_oracle ? "yes" : "NO"});
  }
  table.Print();

  bool all_match = true;
  for (const AblationPoint& p : points) all_match = all_match && p.results_match_oracle;
  WriteJson(env, points);
  if (!all_match) {
    std::fprintf(stderr, "FAILED: a layout diverged from the oracle\n");
    return 1;
  }
  return 0;
}
