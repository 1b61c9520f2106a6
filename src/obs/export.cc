#include "obs/export.h"

#include "common/check.h"
#include "obs/build_info.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace msq::obs {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  MSQ_CHECK(n >= 0 && static_cast<std::size_t>(n) < sizeof(buf));
  out->append(buf, static_cast<std::size_t>(n));
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(&out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToChromeTrace(const QueryProfile& profile) {
  std::string out = "[";
  bool first = true;
  for (const SpanRecord& span : profile.spans) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"" + JsonEscape(span.name) + "\"";
    out += ",\"cat\":\"msq\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    AppendF(&out, ",\"ts\":%.3f", span.start_seconds * 1e6);
    AppendF(&out, ",\"dur\":%.3f", span.duration_seconds() * 1e6);
    out += ",\"args\":{";
    AppendF(&out, "\"network_hits\":%" PRIu64, span.self.network_hits);
    AppendF(&out, ",\"network_misses\":%" PRIu64, span.self.network_misses);
    AppendF(&out, ",\"index_hits\":%" PRIu64, span.self.index_hits);
    AppendF(&out, ",\"index_misses\":%" PRIu64, span.self.index_misses);
    AppendF(&out, ",\"settled_nodes\":%" PRIu64, span.self.settled_nodes);
    AppendF(&out, ",\"dominance_tests\":%" PRIu64, span.self.dominance_tests);
    AppendF(&out, ",\"cache_hits\":%" PRIu64, span.self.cache_hits());
    AppendF(&out, ",\"cache_misses\":%" PRIu64, span.self.cache_misses());
    AppendF(&out, ",\"heap_peak\":%.0f", span.heap_peak);
    out += "}}";
  }
  out += "\n]\n";
  return out;
}

std::string ProfileReport(const QueryProfile& profile) {
  // Aggregate spans by name, preserving first-open order.
  struct Agg {
    int order = 0;
    int depth = 0;
    std::size_t calls = 0;
    double wall = 0.0;
    double self_wall = 0.0;
    Counters self;
    double heap_peak = 0.0;
  };
  std::map<std::string, Agg> by_name;
  int next_order = 0;
  for (const SpanRecord& span : profile.spans) {
    Agg& agg = by_name[span.name];
    if (agg.calls == 0) {
      agg.order = next_order++;
      agg.depth = span.depth;
    }
    ++agg.calls;
    agg.wall += span.duration_seconds();
    agg.self_wall += span.self_seconds();
    agg.self += span.self;
    if (span.heap_peak > agg.heap_peak) agg.heap_peak = span.heap_peak;
  }
  std::vector<const std::pair<const std::string, Agg>*> rows;
  rows.reserve(by_name.size());
  for (const auto& entry : by_name) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->second.order < b->second.order;
  });

  std::string out;
  AppendF(&out, "%-28s %7s %10s %10s %9s %9s %9s %9s %9s %9s %9s %9s\n",
          "span", "calls", "wall ms", "self ms", "net.miss", "net.hit",
          "idx.miss", "idx.hit", "settled", "dom.test", "c.hit", "c.miss");
  Counters total;
  for (const auto* row : rows) {
    const Agg& agg = row->second;
    total += agg.self;
    std::string label(static_cast<std::size_t>(agg.depth) * 2, ' ');
    label += row->first;
    AppendF(&out,
            "%-28s %7zu %10.3f %10.3f %9" PRIu64 " %9" PRIu64 " %9" PRIu64
            " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64
            "\n",
            label.c_str(), agg.calls, agg.wall * 1e3, agg.self_wall * 1e3,
            agg.self.network_misses, agg.self.network_hits,
            agg.self.index_misses, agg.self.index_hits,
            agg.self.settled_nodes, agg.self.dominance_tests,
            agg.self.cache_hits(), agg.self.cache_misses());
  }
  AppendF(&out,
          "%-28s %7s %10s %10s %9" PRIu64 " %9" PRIu64 " %9" PRIu64
          " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64
          "\n",
          "total (self sum)", "", "", "", total.network_misses,
          total.network_hits, total.index_misses, total.index_hits,
          total.settled_nodes, total.dominance_tests, total.cache_hits(),
          total.cache_misses());
  if (profile.dropped_spans > 0) {
    AppendF(&out, "(%zu spans dropped at the session cap)\n",
            profile.dropped_spans);
  }
  // Derived layout-locality figure: physical network page reads per
  // settled node, per phase that settled anything. Lower is better — a
  // locality-aware page layout (Hilbert + CSR) packs a wavefront's
  // frontier into fewer pages, and this is where that shows up in a
  // single-query profile.
  out += "\npages_per_settled_node (network misses / settled nodes)\n";
  for (const auto* row : rows) {
    const Agg& agg = row->second;
    if (agg.self.settled_nodes == 0) continue;
    AppendF(&out, "%-28s %9.4f   (%" PRIu64 " pages / %" PRIu64
            " settled)\n",
            row->first.c_str(),
            PagesPerSettledNode(agg.self.network_misses,
                                agg.self.settled_nodes),
            agg.self.network_misses, agg.self.settled_nodes);
  }
  AppendF(&out, "%-28s %9.4f\n", "total",
          PagesPerSettledNode(total.network_misses, total.settled_nodes));
  return out;
}

double PagesPerSettledNode(std::uint64_t network_pages,
                           std::uint64_t settled_nodes) {
  if (settled_nodes == 0) return 0.0;
  return static_cast<double>(network_pages) /
         static_cast<double>(settled_nodes);
}

std::string MetricsJsonl(const MetricsRegistry& registry) {
  const BuildInfo& build = GetBuildInfo();
  std::string out = "{\"type\":\"build_info\",\"git_sha\":\"" +
                    JsonEscape(build.git_sha) + "\",\"compiler\":\"" +
                    JsonEscape(build.compiler) + "\",\"flags\":\"" +
                    JsonEscape(build.flags) + "\",\"build_type\":\"" +
                    JsonEscape(build.build_type) + "\"}\n";
  registry.ForEachCounter([&](const std::string& name, const Counter& c) {
    out += "{\"type\":\"counter\",\"name\":\"" + JsonEscape(name) + "\"";
    AppendF(&out, ",\"value\":%" PRIu64 "}\n", c.value());
  });
  registry.ForEachGauge([&](const std::string& name, const Gauge& g) {
    out += "{\"type\":\"gauge\",\"name\":\"" + JsonEscape(name) + "\"";
    AppendF(&out, ",\"value\":%.6g,\"peak\":%.6g}\n", g.value(), g.peak());
  });
  registry.ForEachHistogram(
      [&](const std::string& name, const Histogram& h) {
        const Histogram::Snapshot snapshot = h.TakeSnapshot();
        out += "{\"type\":\"histogram\",\"name\":\"" + JsonEscape(name) +
               "\"";
        AppendF(&out, ",\"count\":%" PRIu64 ",\"sum\":%" PRIu64,
                snapshot.count, snapshot.sum);
        out += ",\"buckets\":[";
        bool first = true;
        for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
          if (snapshot.buckets[i] == 0) continue;
          if (!first) out += ",";
          first = false;
          AppendF(&out, "[%" PRIu64 ",%" PRIu64 "]",
                  Histogram::BucketUpper(i), snapshot.buckets[i]);
        }
        out += "]}\n";
      });
  return out;
}

std::string PrometheusName(std::string_view name) {
  std::string out = "msq_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_';
    out += valid ? c : '_';
  }
  return out;
}

namespace {

// Prometheus label values escape only backslash, double-quote, and
// newline (unlike JSON, no \uXXXX forms).
std::string PromLabelEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

namespace {

// OpenMetrics-style exemplar suffix for one bucket line (empty when the
// store has none for this bucket). 0.0.4 scrapers treat it as a comment.
std::string ExemplarSuffix(const ExemplarStore* exemplars,
                           const std::string& name, std::size_t bucket) {
  if (exemplars == nullptr) return "";
  std::optional<ExemplarStore::Exemplar> exemplar =
      exemplars->Find(name, bucket);
  if (!exemplar.has_value()) return "";
  std::string out = " # {trace_id=\"" + PromLabelEscape(exemplar->trace_id) +
                    "\"} ";
  AppendF(&out, "%" PRIu64, exemplar->value);
  return out;
}

}  // namespace

std::string PrometheusText(const MetricsRegistry& registry) {
  return PrometheusText(registry, nullptr);
}

std::string PrometheusText(const MetricsRegistry& registry,
                           const ExemplarStore* exemplars) {
  const BuildInfo& build = GetBuildInfo();
  std::string out = "# TYPE msq_build_info gauge\n";
  out += "msq_build_info{git_sha=\"" + PromLabelEscape(build.git_sha) +
         "\",compiler=\"" + PromLabelEscape(build.compiler) +
         "\",flags=\"" + PromLabelEscape(build.flags) +
         "\",build_type=\"" + PromLabelEscape(build.build_type) +
         "\"} 1\n";
  registry.ForEachCounter([&](const std::string& name, const Counter& c) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    AppendF(&out, "%s %" PRIu64 "\n", prom.c_str(), c.value());
  });
  registry.ForEachGauge([&](const std::string& name, const Gauge& g) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    AppendF(&out, "%s %.6g\n", prom.c_str(), g.value());
    out += "# TYPE " + prom + "_peak gauge\n";
    AppendF(&out, "%s_peak %.6g\n", prom.c_str(), g.peak());
  });
  registry.ForEachHistogram(
      [&](const std::string& name, const Histogram& h) {
        const Histogram::Snapshot snapshot = h.TakeSnapshot();
        const std::string prom = PrometheusName(name);
        out += "# TYPE " + prom + " histogram\n";
        // Cumulative buckets up to the highest populated one (bucket 64
        // folds into +Inf: its finite upper bound exceeds what most
        // scrapers parse losslessly anyway).
        std::size_t top = 0;
        for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
          if (snapshot.buckets[i] != 0) top = i;
        }
        if (top >= 64) top = 63;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= top; ++i) {
          cumulative += snapshot.buckets[i];
          AppendF(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "%s\n",
                  prom.c_str(), Histogram::BucketUpper(i), cumulative,
                  ExemplarSuffix(exemplars, name, i).c_str());
        }
        AppendF(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "%s\n",
                prom.c_str(), snapshot.count,
                ExemplarSuffix(exemplars, name, 64).c_str());
        AppendF(&out, "%s_sum %" PRIu64 "\n", prom.c_str(), snapshot.sum);
        AppendF(&out, "%s_count %" PRIu64 "\n", prom.c_str(),
                snapshot.count);
      });
  return out;
}

}  // namespace msq::obs
