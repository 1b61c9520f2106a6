// Profile/metrics exporters: Chrome trace_event JSON, a human-readable
// per-phase report, and a JSONL dump of a metrics registry.
#ifndef MSQ_OBS_EXPORT_H_
#define MSQ_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_store.h"

namespace msq::obs {

// Escapes `s` for inclusion inside a JSON string literal (quotes,
// backslashes, control characters).
std::string JsonEscape(std::string_view s);

// Appends printf-formatted text to `*out`; the text must be shorter than
// 512 bytes (checked).
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// Chrome trace_event format: a JSON array of complete ("ph":"X") events,
// one per span, with the span's self counters in "args". Loads directly in
// chrome://tracing / Perfetto.
std::string ToChromeTrace(const QueryProfile& profile);

// Human-readable per-phase table: spans aggregated by name with call
// counts, inclusive/self wall time, and self counter totals. The footer
// line sums the self columns — by construction it equals the root span's
// inclusive totals. A derived pages_per_settled_node section follows the
// table: one line per phase that settled nodes, showing how many physical
// network page reads each settled node cost (the storage-layout locality
// figure of merit — DESIGN.md §15).
std::string ProfileReport(const QueryProfile& profile);

// The one shared derivation behind every pages_per_settled_node figure
// (report, tools, benches): network page MISSES per settled node, 0 when
// nothing settled. Single definition so independent recomputations can be
// compared bit-for-bit in reconciliation checks.
double PagesPerSettledNode(std::uint64_t network_pages,
                           std::uint64_t settled_nodes);

// One JSON object per line: a build-info stamp, then every counter, gauge,
// and histogram in `registry` (histograms carry count/sum plus the
// non-empty log2 buckets as [upper_bound, count] pairs).
std::string MetricsJsonl(const MetricsRegistry& registry);

// Prometheus metric name for a registry name: `msq_` prefix, then every
// character outside [a-zA-Z0-9_] replaced with '_' (the §9 mangling rule:
// `buffer.network.hits` -> `msq_buffer_network_hits`,
// `exec.edc-inc.latency_us_hist` -> `msq_exec_edc_inc_latency_us_hist`).
std::string PrometheusName(std::string_view name);

// Prometheus text exposition (format 0.0.4) of the whole registry: a
// `msq_build_info` gauge carrying the build stamp as labels, counters,
// gauges (the peak as a separate `<name>_peak` family), and histograms as
// cumulative `<name>_bucket{le="..."}` series with `_sum` and `_count`.
//
// With a non-null ExemplarStore, bucket lines whose (histogram, bucket)
// has a retained-trace exemplar get an OpenMetrics-style suffix:
//   msq_..._bucket{le="1024"} 17 # {trace_id="<32 hex>"} 812
// Prometheus ignores everything after '#' in the 0.0.4 text format, so
// the exposition stays scrapeable by plain scrapers while exemplar-aware
// ones can link a p99 bucket to a /tracez trace.
std::string PrometheusText(const MetricsRegistry& registry,
                           const ExemplarStore* exemplars);
std::string PrometheusText(const MetricsRegistry& registry);

}  // namespace msq::obs

#endif  // MSQ_OBS_EXPORT_H_
