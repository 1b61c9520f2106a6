#include "obs/telemetry.h"

#include <cmath>
#include <utility>

namespace msq::obs {
namespace {

std::uint64_t LatencyMicros(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

}  // namespace

ServingTelemetry::ServingTelemetry(const TelemetryConfig& config)
    : config_(config),
      registry_(config.registry != nullptr ? config.registry
                                           : &GlobalMetrics()),
      flight_(config.flight_capacity),
      traces_(config.trace_capacity),
      queries_(registry_->counter(metric::kExecQueries)),
      slow_queries_(registry_->counter(metric::kExecSlowQueryCount)),
      traces_retained_(registry_->counter(metric::kTracesRetained)),
      head_sampled_(registry_->counter(metric::kTracesHeadSampled)) {}

const ServingTelemetry::AlgoHistograms& ServingTelemetry::HistogramsFor(
    std::string_view algorithm) {
  std::lock_guard<std::mutex> lock(algos_mu_);
  auto it = algos_.find(algorithm);
  if (it == algos_.end()) {
    const std::string prefix = "exec." + std::string(algorithm) + ".";
    AlgoHistograms histograms;
    histograms.latency_us =
        registry_->histogram(prefix + metric::kLatencyUsHist);
    histograms.network_page_accesses =
        registry_->histogram(prefix + metric::kNetworkPageAccessesHist);
    histograms.index_page_accesses =
        registry_->histogram(prefix + metric::kIndexPageAccessesHist);
    histograms.settled_nodes =
        registry_->histogram(prefix + metric::kSettledNodesHist);
    histograms.cache_hits =
        registry_->histogram(prefix + metric::kCacheHitsHist);
    it = algos_.emplace(std::string(algorithm), histograms).first;
  }
  return it->second;
}

std::uint64_t ServingTelemetry::RecordQuery(std::string_view algorithm,
                                            const FlightRecord& record) {
  if (!config_.enabled) return 0;
  const AlgoHistograms& histograms = HistogramsFor(algorithm);
  histograms.latency_us->Observe(LatencyMicros(record.wall_seconds));
  histograms.network_page_accesses->Observe(
      record.counters.network_accesses());
  histograms.index_page_accesses->Observe(record.counters.index_accesses());
  histograms.settled_nodes->Observe(record.counters.settled_nodes);
  histograms.cache_hits->Observe(record.counters.cache_hits());
  Histogram* performed = dominance_performed_.load(std::memory_order_acquire);
  if (performed == nullptr) {
    performed = registry_->histogram(metric::kDominancePerformedHist);
    dominance_performed_.store(performed, std::memory_order_release);
  }
  Histogram* avoided = dominance_avoided_.load(std::memory_order_acquire);
  if (avoided == nullptr) {
    avoided = registry_->histogram(metric::kDominanceAvoidedHist);
    dominance_avoided_.store(avoided, std::memory_order_release);
  }
  performed->Observe(record.counters.dominance_tests);
  avoided->Observe(record.counters.dominance_avoided);
  queries_->Inc();
  return flight_.Record(record);
}

bool ServingTelemetry::IsSlow(const FlightRecord& record) const {
  const bool wall_slow = config_.slow_wall_seconds > 0.0 &&
                         record.wall_seconds > config_.slow_wall_seconds;
  const std::uint64_t accesses =
      record.counters.network_accesses() + record.counters.index_accesses();
  const bool pages_slow = config_.slow_page_accesses > 0 &&
                          accesses > config_.slow_page_accesses;
  return wall_slow || pages_slow;
}

bool ServingTelemetry::HeadSample() {
  if (!config_.enabled || config_.head_sample_every == 0) return false;
  const std::uint64_t n =
      head_counter_.fetch_add(1, std::memory_order_relaxed);
  if (n % config_.head_sample_every != 0) return false;
  head_sampled_->Inc();
  return true;
}

RetainReason ServingTelemetry::CompleteRequest(const TraceContext& ctx,
                                               const FlightRecord& record,
                                               double queue_seconds,
                                               std::string_view algorithm,
                                               QueryProfile profile) {
  if (!config_.enabled) return RetainReason::kNone;
  const bool slow = IsSlow(record);
  if (slow) slow_queries_->Inc();
  // Retention priority: outcome anomalies first, then slowness, then the
  // head-sampling coin. 100% of errored/truncated/slow traces are kept;
  // fast healthy traces are kept at most at the head rate.
  RetainReason reason = RetainReason::kNone;
  if (record.status_code != 0) {
    reason = RetainReason::kError;
  } else if (record.truncation != 0) {
    reason = RetainReason::kTruncated;
  } else if (slow) {
    reason = RetainReason::kSlow;
  } else if (ctx.sampled) {
    reason = RetainReason::kHeadSampled;
  }
  if (reason == RetainReason::kNone) return reason;
  RetainedTrace trace;
  trace.trace_id_hi = ctx.trace_id_hi;
  trace.trace_id_lo = ctx.trace_id_lo;
  trace.sequence = record.sequence;
  trace.algorithm = std::string(algorithm);
  trace.status_code = record.status_code;
  trace.truncation = record.truncation;
  trace.reason = reason;
  trace.queue_seconds = queue_seconds;
  trace.wall_seconds = record.wall_seconds;
  trace.page_accesses =
      record.counters.network_accesses() + record.counters.index_accesses();
  trace.profile = std::move(profile);
  const std::string trace_id = trace.TraceIdHex();
  traces_.Retain(std::move(trace));
  traces_retained_->Inc();
  // Exemplar: link this latency observation's histogram bucket to the
  // retained trace so the Prometheus exposition can point a p99 bucket at
  // a /tracez trace_id.
  exemplars_.Observe(
      "exec." + std::string(algorithm) + "." + metric::kLatencyUsHist,
      LatencyMicros(record.wall_seconds), trace_id);
  // Pruning-power exemplars: point the dominance/bound-tightness series at
  // the same retained trace.
  const Counters& c = record.counters;
  exemplars_.Observe(metric::kDominancePerformedHist, c.dominance_tests,
                     trace_id);
  exemplars_.Observe(metric::kDominanceAvoidedHist, c.dominance_avoided,
                     trace_id);
  if (c.bound_samples > 0) {
    exemplars_.Observe(metric::kBoundTightnessHist,
                       c.bound_pct_sum / c.bound_samples, trace_id);
  }
  return reason;
}

}  // namespace msq::obs
