// Per-query profiler for the skyline algorithms: runs one query with
// tracing enabled and prints the per-phase profile report. Optionally
// exports a Chrome trace_event JSON (chrome://tracing / Perfetto) and a
// JSONL dump of the global metrics registry. Subsumes the old lbc_profile
// and edc_debug one-offs.
//
// Usage:
//   msq_profile [--algo NAME] [--network CA|AU|NA] [--scale F]
//               [--density F] [--sources N] [--seed N]
//               [--trace-out PATH] [--metrics-out PATH]
//               [--plan-out PATH] [--check]
//
// Every run also collects the query's ExecutionPlan (obs/plan.h) and holds
// it to the ReconcilePlan oracle — plan totals must equal QueryStats
// exactly or the run exits non-zero, same as the span reconciliation gate.
// --plan-out writes the plan's JSON (the same shape a served
// "explain":true response carries).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>

#include "core/naive.h"
#include "core/skyline_query.h"
#include "gen/workloads.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/plan.h"
#include "obs/trace.h"

using namespace msq;

namespace {

struct Options {
  Algorithm algo = Algorithm::kLbc;
  NetworkClass network = NetworkClass::kNA;
  double scale = 0.2;
  double density = 0.5;
  std::size_t sources = 4;
  std::uint64_t seed = 1;
  std::string trace_out;
  std::string metrics_out;
  std::string plan_out;
  bool check = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--algo NAME] [--network CA|AU|NA] [--scale F]\n"
      "          [--density F] [--sources N] [--seed N]\n"
      "          [--trace-out PATH] [--metrics-out PATH]\n"
      "          [--plan-out PATH] [--check]\n"
      "algorithms: %s\n",
      argv0, AlgorithmNames().c_str());
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
    if (std::strcmp(arg, "--algo") == 0) {
      if ((v = value()) == nullptr || !ParseAlgorithm(v, &opts->algo)) {
        return false;
      }
    } else if (std::strcmp(arg, "--network") == 0) {
      if ((v = value()) == nullptr || !ParseNetwork(v, &opts->network)) {
        return false;
      }
    } else if (std::strcmp(arg, "--scale") == 0) {
      if ((v = value()) == nullptr || (opts->scale = std::atof(v)) <= 0.0) {
        return false;
      }
    } else if (std::strcmp(arg, "--density") == 0) {
      if ((v = value()) == nullptr || (opts->density = std::atof(v)) <= 0.0) {
        return false;
      }
    } else if (std::strcmp(arg, "--sources") == 0) {
      if ((v = value()) == nullptr || std::atol(v) <= 0) return false;
      opts->sources = static_cast<std::size_t>(std::atol(v));
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->trace_out = v;
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->metrics_out = v;
    } else if (std::strcmp(arg, "--plan-out") == 0) {
      if ((v = value()) == nullptr) return false;
      opts->plan_out = v;
    } else if (std::strcmp(arg, "--check") == 0) {
      opts->check = true;
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
  SkylineQuerySpec spec = workload.SampleQuery(opts.sources, opts.seed);
  workload.ResetBuffers();

  obs::TraceSession trace;
  spec.trace = &trace;
  obs::PlanCollector plan_collector;
  spec.plan = &plan_collector;
  const SkylineResult result =
      RunSkylineQuery(opts.algo, workload.dataset(), spec);
  if (!result.status.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status.message().c_str());
    return 1;
  }

  std::printf("%s on %s (scale %.2f, density %.2f, |Q|=%zu, seed %llu)\n",
              std::string(AlgorithmName(opts.algo)).c_str(),
              NetworkClassName(opts.network).c_str(), opts.scale,
              opts.density, opts.sources,
              static_cast<unsigned long long>(opts.seed));
  std::printf(
      "skyline %zu, candidates %zu, settled %llu, "
      "network pages %llu (%llu accesses), index pages %llu (%llu "
      "accesses), %.2f ms total / %.2f ms initial\n\n",
      result.stats.skyline_size, result.stats.candidate_count,
      static_cast<unsigned long long>(result.stats.counters.settled_nodes),
      static_cast<unsigned long long>(result.stats.network_pages),
      static_cast<unsigned long long>(result.stats.network_page_accesses),
      static_cast<unsigned long long>(result.stats.index_pages),
      static_cast<unsigned long long>(result.stats.index_page_accesses),
      result.stats.total_seconds * 1e3, result.stats.initial_seconds * 1e3);

  if (result.profile.has_value()) {
    std::fputs(obs::ProfileReport(*result.profile).c_str(), stdout);
    if (!opts.trace_out.empty() &&
        !WriteFile(opts.trace_out, obs::ToChromeTrace(*result.profile))) {
      return 1;
    }
    // Span-vs-QueryStats reconciliation is the tracer's core invariant
    // (DESIGN.md §9); a mismatch is a bug, so fail the run for CI.
    const std::string mismatch =
        obs::ReconcileProfile(*result.profile, result.stats);
    if (!mismatch.empty()) {
      std::fprintf(stderr, "reconciliation FAILED: %s\n", mismatch.c_str());
      return 1;
    }
    std::printf("\nprofile reconciles with QueryStats\n");
  } else {
    std::fprintf(stderr, "traced query returned no profile\n");
    return 1;
  }

  // EXPLAIN plan: build it from this run's stats/profile/collector and
  // hold it to the plan oracle (DESIGN.md §17) — the CI gate for the
  // pruning-power counters.
  const obs::ExecutionPlan plan = obs::BuildExecutionPlan(
      AlgorithmName(opts.algo), result.stats,
      result.profile.has_value() ? &*result.profile : nullptr,
      &plan_collector, result.truncated);
  const std::string plan_mismatch = obs::ReconcilePlan(plan, result.stats);
  if (!plan_mismatch.empty()) {
    std::fprintf(stderr, "plan reconciliation FAILED: %s\n",
                 plan_mismatch.c_str());
    return 1;
  }
  std::printf(
      "plan reconciles: dominance %llu performed / %llu avoided, "
      "bounds pruned %llu / examined %llu, mean tightness %.1f%% "
      "(%llu samples), lookups memo %llu / wavefront %llu / computed "
      "%llu\n",
      static_cast<unsigned long long>(plan.counters.dominance_tests),
      static_cast<unsigned long long>(plan.counters.dominance_avoided),
      static_cast<unsigned long long>(plan.counters.bound_pruned),
      static_cast<unsigned long long>(plan.counters.bound_examined),
      plan.mean_tightness_pct(),
      static_cast<unsigned long long>(plan.counters.bound_samples),
      static_cast<unsigned long long>(plan.tiers.memo_hits),
      static_cast<unsigned long long>(plan.tiers.wavefront_exact),
      static_cast<unsigned long long>(plan.tiers.computed));
  if (!opts.plan_out.empty() &&
      !WriteFile(opts.plan_out, obs::PlanJson(plan) + "\n")) {
    return 1;
  }
  if (!opts.metrics_out.empty() &&
      !WriteFile(opts.metrics_out, obs::MetricsJsonl(obs::GlobalMetrics()))) {
    return 1;
  }

  if (opts.check) {
    workload.ResetBuffers();
    SkylineQuerySpec naive_spec = spec;
    naive_spec.trace = nullptr;
    const SkylineResult oracle = RunNaive(workload.dataset(), naive_spec);
    std::unordered_set<ObjectId> expected;
    for (const SkylineEntry& e : oracle.skyline) expected.insert(e.object);
    std::unordered_set<ObjectId> got;
    for (const SkylineEntry& e : result.skyline) got.insert(e.object);
    if (expected == got) {
      std::printf("\ncheck: matches naive oracle (%zu points)\n",
                  expected.size());
    } else {
      std::printf("\ncheck: MISMATCH — naive %zu points, %s %zu points\n",
                  expected.size(),
                  std::string(AlgorithmName(opts.algo)).c_str(), got.size());
      return 1;
    }
  }
  return 0;
}
