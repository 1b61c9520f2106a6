#include "obs/plan.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <utility>

#include "core/query.h"
#include "obs/export.h"

namespace msq::obs {
namespace {

std::string Mismatch(const std::string& what, const char* side,
                     std::uint64_t got, std::uint64_t expected) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: %s %" PRIu64 " != expected %" PRIu64,
                what.c_str(), side, got, expected);
  return buf;
}

// First row where `got` differs from `expected`, as a Mismatch named
// `prefix` + the row's field; empty when every row agrees.
std::string MismatchedRow(const Counters& got, const Counters& expected,
                          const char* side, const std::string& prefix) {
  for (const CounterRow& row : kCounterRows) {
    if (got.*row.member != expected.*row.member) {
      return Mismatch(prefix + row.field, side, got.*row.member,
                      expected.*row.member);
    }
  }
  return std::string();
}

// A named measure outside the counter table and its expected value.
struct NamedPair {
  const char* name;
  std::uint64_t got;
  std::uint64_t expected;
};

// First pair whose values differ, as a Mismatch; empty when all agree.
std::string MismatchedPair(std::initializer_list<NamedPair> pairs,
                           const char* side) {
  for (const NamedPair& pair : pairs) {
    if (pair.got != pair.expected) {
      return Mismatch(pair.name, side, pair.got, pair.expected);
    }
  }
  return std::string();
}

}  // namespace

void PlanCollector::RecordSource(std::size_t source,
                                 std::uint64_t settled_nodes, double radius,
                                 bool resumed_from_cache) {
  for (PlanSourceProgress& existing : sources_) {
    if (existing.source == source) {
      existing.settled_nodes = settled_nodes;
      existing.radius = radius;
      existing.resumed_from_cache = resumed_from_cache;
      return;
    }
  }
  PlanSourceProgress progress;
  progress.source = source;
  progress.settled_nodes = settled_nodes;
  progress.radius = radius;
  progress.resumed_from_cache = resumed_from_cache;
  sources_.push_back(progress);
}

ExecutionPlan BuildExecutionPlan(std::string_view algorithm,
                                 const msq::QueryStats& stats,
                                 const QueryProfile* profile,
                                 const PlanCollector* collector,
                                 bool truncated) {
  ExecutionPlan plan;
  plan.algorithm = std::string(algorithm);
  plan.total_seconds = stats.total_seconds;
  plan.truncated = truncated;
  plan.counters = stats.counters;
  plan.candidate_count = stats.candidate_count;
  plan.skyline_size = stats.skyline_size;
  if (collector != nullptr) {
    plan.bound_tightness = collector->tightness();
    plan.sources = collector->sources();
    plan.tiers = collector->tiers();
  }
  if (profile != nullptr && !profile->spans.empty()) {
    // Depth-1 spans (inclusive) plus the root's self counters partition
    // the root's inclusive totals — i.e. the query's totals — exactly.
    for (std::size_t i = 1; i < profile->spans.size(); ++i) {
      const SpanRecord& span = profile->spans[i];
      if (span.depth != 1) continue;
      PlanPhase phase;
      phase.name = span.name;
      phase.seconds = span.duration_seconds();
      phase.counters = profile->InclusiveCounters(i);
      plan.phases.push_back(std::move(phase));
    }
    PlanPhase rest;
    rest.name = "unattributed";
    rest.seconds = profile->spans[0].self_seconds();
    rest.counters = profile->spans[0].self;
    plan.phases.push_back(std::move(rest));
  }
  return plan;
}

std::string ReconcilePlan(const ExecutionPlan& plan,
                          const msq::QueryStats& stats) {
  std::string mismatch =
      MismatchedRow(plan.counters, stats.counters, "plan", "");
  if (mismatch.empty()) {
    mismatch = MismatchedPair(
        {{"network_page_accesses", plan.counters.network_accesses(),
          stats.network_page_accesses},
         {"index_page_accesses", plan.counters.index_accesses(),
          stats.index_page_accesses},
         {"candidate_count", plan.candidate_count, stats.candidate_count},
         {"skyline_size", plan.skyline_size, stats.skyline_size},
         // The histogram was filled by the collector, the sample rows by
         // the thread-local substrate — two independent paths.
         {"tightness histogram count", plan.bound_tightness.count,
          stats.counters.bound_samples},
         {"tightness histogram sum", plan.bound_tightness.sum,
          stats.counters.bound_pct_sum}},
        "plan");
  }
  if (!mismatch.empty() || plan.phases.empty()) return mismatch;
  Counters totals;
  for (const PlanPhase& phase : plan.phases) totals += phase.counters;
  return MismatchedRow(totals, stats.counters, "phases", "phase ");
}

std::string ReconcileProfile(const QueryProfile& profile,
                             const msq::QueryStats& stats) {
  if (profile.spans.empty()) return "profile has no root span";
  const Counters total = profile.TotalCounters();
  std::string mismatch =
      MismatchedRow(total, stats.counters, "span self-sum", "");
  // Self counters are an exact partition: their sum is also the root
  // span's inclusive view.
  if (mismatch.empty()) {
    mismatch = MismatchedRow(profile.InclusiveCounters(0), total,
                             "root inclusive", "");
  }
  if (mismatch.empty()) {
    mismatch = MismatchedPair(
        {{"network_pages", total.network_misses, stats.network_pages},
         {"network_page_accesses", total.network_accesses(),
          stats.network_page_accesses},
         {"index_pages", total.index_misses, stats.index_pages},
         {"index_page_accesses", total.index_accesses(),
          stats.index_page_accesses}},
        "span self-sum");
  }
  if (!mismatch.empty()) return mismatch;
  // The derived pages_per_settled_node figure divides the same integers
  // through the same function on both sides, so it must agree bit for bit.
  const double from_spans =
      PagesPerSettledNode(total.network_misses, total.settled_nodes);
  const double from_stats = PagesPerSettledNode(
      stats.network_pages, stats.counters.settled_nodes);
  if (from_spans == from_stats) return std::string();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "pages_per_settled_node: span derivation %.17g != "
                "QueryStats derivation %.17g",
                from_spans, from_stats);
  return buf;
}

std::string PlanJson(const ExecutionPlan& plan) {
  std::string out = "{\"algorithm\":\"" + JsonEscape(plan.algorithm);
  AppendF(&out, "\",\"total_seconds\":%.6f,\"truncated\":%s",
          plan.total_seconds, plan.truncated ? "true" : "false");
  AppendF(&out,
          ",\"dominance_tests\":{\"performed\":%" PRIu64
          ",\"avoided\":%" PRIu64 "}",
          plan.counters.dominance_tests, plan.counters.dominance_avoided);
  AppendF(&out,
          ",\"bounds\":{\"pruned\":%" PRIu64 ",\"examined\":%" PRIu64
          ",\"tightness\":{\"samples\":%" PRIu64 ",\"mean_pct\":%.1f,"
          "\"histogram\":[",
          plan.counters.bound_pruned, plan.counters.bound_examined,
          plan.counters.bound_samples, plan.mean_tightness_pct());
  bool first = true;
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    if (plan.bound_tightness.buckets[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    AppendF(&out, "{\"le\":%" PRIu64 ",\"count\":%" PRIu64 "}",
            Histogram::BucketUpper(i), plan.bound_tightness.buckets[i]);
  }
  out += "]}}";
  AppendF(&out,
          ",\"pages\":{\"network_accesses\":%" PRIu64
          ",\"index_accesses\":%" PRIu64 "},\"settled_nodes\":%" PRIu64,
          plan.counters.network_accesses(), plan.counters.index_accesses(),
          plan.counters.settled_nodes);
  AppendF(&out,
          ",\"cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
          ",\"lookup_tiers\":{\"memo\":%" PRIu64 ",\"wavefront\":%" PRIu64
          ",\"computed\":%" PRIu64 "}}",
          plan.counters.cache_hits(), plan.counters.cache_misses(),
          plan.tiers.memo_hits,
          plan.tiers.wavefront_exact, plan.tiers.computed);
  AppendF(&out, ",\"candidates\":%" PRIu64 ",\"skyline_size\":%" PRIu64,
          plan.candidate_count, plan.skyline_size);
  out += ",\"phases\":[";
  for (std::size_t i = 0; i < plan.phases.size(); ++i) {
    const PlanPhase& phase = plan.phases[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(phase.name);
    AppendF(&out,
            "\",\"seconds\":%.6f,\"network_page_accesses\":%" PRIu64
            ",\"index_page_accesses\":%" PRIu64 ",\"settled_nodes\":%" PRIu64
            ",\"dominance_tests\":%" PRIu64 ",\"dominance_avoided\":%" PRIu64
            ",\"bound_pruned\":%" PRIu64 ",\"bound_examined\":%" PRIu64
            ",\"cache_hits\":%" PRIu64 "}",
            phase.seconds, phase.counters.network_accesses(),
            phase.counters.index_accesses(), phase.counters.settled_nodes,
            phase.counters.dominance_tests, phase.counters.dominance_avoided,
            phase.counters.bound_pruned, phase.counters.bound_examined,
            phase.counters.cache_hits());
  }
  out += "],\"sources\":[";
  for (std::size_t i = 0; i < plan.sources.size(); ++i) {
    const PlanSourceProgress& source = plan.sources[i];
    if (i > 0) out += ",";
    AppendF(&out,
            "{\"source\":%zu,\"settled_nodes\":%" PRIu64
            ",\"radius\":%.6f,\"resumed_from_cache\":%s}",
            source.source, source.settled_nodes, source.radius,
            source.resumed_from_cache ? "true" : "false");
  }
  out += "]}";
  return out;
}

RecentRing<RetainedPlan>::Window PlanStore::Snapshot() const {
  RecentRing<RetainedPlan>::Window window = plans_.Snapshot();
  // Workers retain plans in the order they finish telemetry, which can
  // differ from the order they drew their flight-recorder sequences.
  std::sort(window.records.begin(), window.records.end(),
            [](const RetainedPlan& a, const RetainedPlan& b) {
              return a.sequence < b.sequence;
            });
  return window;
}

void PlanStore::Account(std::string_view algorithm,
                        const msq::QueryStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = aggregates_.find(algorithm);
  if (it == aggregates_.end()) {
    it = aggregates_.emplace(std::string(algorithm), PlanAggregate{}).first;
  }
  PlanAggregate& agg = it->second;
  ++agg.queries;
  agg.counters += stats.counters;
  ++accounted_total_;
}

std::vector<std::pair<std::string, PlanAggregate>> PlanStore::Aggregates()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::pair<std::string, PlanAggregate>>(
      aggregates_.begin(), aggregates_.end());
}

std::uint64_t PlanStore::accounted_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accounted_total_;
}

std::string ExplainzJson(const PlanStore& store) {
  const std::vector<std::pair<std::string, PlanAggregate>> aggregates =
      store.Aggregates();
  const std::vector<RetainedPlan> plans = store.Snapshot().records;
  std::string out = "{\"pruning_efficiency\":[";
  bool first = true;
  for (const auto& [algo, aggregate] : aggregates) {
    if (!first) out += ",";
    first = false;
    const Counters& agg = aggregate.counters;
    const double avoided_ratio =
        agg.dominance_tests + agg.dominance_avoided == 0
            ? 0.0
            : static_cast<double>(agg.dominance_avoided) /
                  static_cast<double>(agg.dominance_tests +
                                      agg.dominance_avoided);
    const double prune_ratio =
        agg.bound_pruned + agg.bound_examined == 0
            ? 0.0
            : static_cast<double>(agg.bound_pruned) /
                  static_cast<double>(agg.bound_pruned + agg.bound_examined);
    const double mean_tightness =
        agg.bound_samples == 0
            ? 0.0
            : static_cast<double>(agg.bound_pct_sum) /
                  static_cast<double>(agg.bound_samples);
    out += "{\"algorithm\":\"" + JsonEscape(algo);
    AppendF(&out,
            "\",\"queries\":%" PRIu64 ",\"dominance_tests\":%" PRIu64
            ",\"dominance_avoided\":%" PRIu64 ",\"avoided_ratio\":%.4f"
            ",\"bound_pruned\":%" PRIu64 ",\"bound_examined\":%" PRIu64
            ",\"prune_ratio\":%.4f,\"mean_tightness_pct\":%.1f}",
            aggregate.queries, agg.dominance_tests, agg.dominance_avoided,
            avoided_ratio, agg.bound_pruned, agg.bound_examined, prune_ratio,
            mean_tightness);
  }
  out += "],\"plans\":[";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (i > 0) out += ",";
    AppendF(&out, "{\"sequence\":%" PRIu64 ",\"trace_id\":\"",
            plans[i].sequence);
    out += JsonEscape(plans[i].trace_id);
    out += "\",\"plan\":";
    out += PlanJson(plans[i].plan);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace msq::obs
