#include "bench_support/metrics.h"

#include <cmath>
#include <cstdio>

#include "obs/export.h"

namespace msq {

void Series::Add(double value) {
  ++count_;
  if (count_ == 1) {
    mean_ = min_ = max_ = value;
    return;
  }
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

double Series::stddev() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

void StatsAccumulator::Add(const QueryStats& stats) {
  candidates_.Add(static_cast<double>(stats.candidate_count));
  skyline_.Add(static_cast<double>(stats.skyline_size));
  network_pages_.Add(static_cast<double>(stats.network_pages));
  index_pages_.Add(static_cast<double>(stats.index_pages));
  settled_.Add(static_cast<double>(stats.counters.settled_nodes));
  total_seconds_.Add(stats.total_seconds);
  initial_seconds_.Add(stats.initial_seconds);
}

std::string QueryStatsJsonLine(const std::string& label,
                               const QueryStats& stats) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"label\":\"%s\",\"candidates\":%zu,\"skyline\":%zu,"
      "\"network_pages\":%llu,\"network_page_accesses\":%llu,"
      "\"index_pages\":%llu,\"index_page_accesses\":%llu,"
      "\"settled_nodes\":%zu,\"total_seconds\":%.6f,"
      "\"initial_seconds\":%.6f}",
      obs::JsonEscape(label).c_str(), stats.candidate_count,
      stats.skyline_size,
      static_cast<unsigned long long>(stats.network_pages),
      static_cast<unsigned long long>(stats.network_page_accesses),
      static_cast<unsigned long long>(stats.index_pages),
      static_cast<unsigned long long>(stats.index_page_accesses),
      stats.counters.settled_nodes, stats.total_seconds, stats.initial_seconds);
  return buf;
}

}  // namespace msq
