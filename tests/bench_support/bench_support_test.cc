#include <cmath>

#include <gtest/gtest.h>

#include "bench_support/metrics.h"
#include "bench_support/table.h"

namespace msq {
namespace {

TEST(StatsAccumulatorTest, EmptyMeansZero) {
  StatsAccumulator acc;
  EXPECT_EQ(acc.runs(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean_candidates(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean_total_seconds(), 0.0);
}

TEST(StatsAccumulatorTest, MeansOverRuns) {
  StatsAccumulator acc;
  QueryStats a;
  a.candidate_count = 10;
  a.skyline_size = 2;
  a.network_pages = 100;
  a.index_pages = 4;
  a.counters.settled_nodes = 1000;
  a.total_seconds = 1.0;
  a.initial_seconds = 0.25;
  QueryStats b;
  b.candidate_count = 20;
  b.skyline_size = 4;
  b.network_pages = 200;
  b.index_pages = 8;
  b.counters.settled_nodes = 3000;
  b.total_seconds = 3.0;
  b.initial_seconds = 0.75;
  acc.Add(a);
  acc.Add(b);
  EXPECT_EQ(acc.runs(), 2u);
  EXPECT_DOUBLE_EQ(acc.mean_candidates(), 15.0);
  EXPECT_DOUBLE_EQ(acc.mean_skyline(), 3.0);
  EXPECT_DOUBLE_EQ(acc.mean_network_pages(), 150.0);
  EXPECT_DOUBLE_EQ(acc.mean_index_pages(), 6.0);
  EXPECT_DOUBLE_EQ(acc.mean_settled(), 2000.0);
  EXPECT_DOUBLE_EQ(acc.mean_total_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(acc.mean_initial_seconds(), 0.5);
}

TEST(SeriesTest, EmptySeriesIsAllZero) {
  Series s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SeriesTest, TracksMinMaxMeanStddev) {
  Series s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sum of squared deviations is 32; sample variance 32/7.
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SeriesTest, SingleValueHasZeroSpread) {
  Series s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StatsAccumulatorTest, SeriesAccessorsExposeSpread) {
  StatsAccumulator acc;
  QueryStats a;
  a.total_seconds = 1.0;
  QueryStats b;
  b.total_seconds = 3.0;
  acc.Add(a);
  acc.Add(b);
  EXPECT_DOUBLE_EQ(acc.total_seconds().min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.total_seconds().max(), 3.0);
  EXPECT_NEAR(acc.total_seconds().stddev(), std::sqrt(2.0), 1e-12);
}

TEST(QueryStatsJsonLineTest, EmitsAllFieldsAndEscapesLabel) {
  QueryStats stats;
  stats.candidate_count = 7;
  stats.skyline_size = 3;
  stats.network_pages = 10;
  stats.network_page_accesses = 40;
  stats.index_pages = 2;
  stats.index_page_accesses = 5;
  stats.counters.settled_nodes = 123;
  stats.total_seconds = 0.5;
  stats.initial_seconds = 0.125;
  const std::string line = QueryStatsJsonLine("fig5.\"CE\"", stats);
  EXPECT_NE(line.find("\"label\":\"fig5.\\\"CE\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"candidates\":7"), std::string::npos);
  EXPECT_NE(line.find("\"network_pages\":10"), std::string::npos);
  EXPECT_NE(line.find("\"network_page_accesses\":40"), std::string::npos);
  EXPECT_NE(line.find("\"index_page_accesses\":5"), std::string::npos);
  EXPECT_NE(line.find("\"settled_nodes\":123"), std::string::npos);
  EXPECT_NE(line.find("\"total_seconds\":0.500000"), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "v"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  EXPECT_EQ(table.ToString(),
            "name    v\n"
            "a       1\n"
            "longer  22\n");
}

TEST(TablePrinterTest, HeaderOnly) {
  TablePrinter table({"x", "y"});
  EXPECT_EQ(table.ToString(), "x  y\n");
}

TEST(TablePrinterTest, RaggedRowsTolerated) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("1\n"), std::string::npos);
}

TEST(TablePrinterTest, NumericFormatters) {
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fixed(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Integer(41.6), "42");
  EXPECT_EQ(TablePrinter::Integer(-0.2), "0");
}

}  // namespace
}  // namespace msq
