// Golden `oodb top` contract: rendering a committed flight-recorder
// series (recorded from the s11 smoke cell) is byte-stable — both the
// human screen and the machine report. The report must name a dominant
// bottleneck phase, and its per-phase sums must cover the measured
// end-to-end latency within 5% (in practice exactly, because execute is
// the residual).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/top.h"
#include "obs/trace_check.h"
#include "util/json.h"

namespace oodb {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(OODB_GOLDEN_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SeriesData LoadGoldenSeries() {
  Result<SeriesData> series =
      ParseSeries(ReadFile(GoldenPath("top_series.jsonl")));
  EXPECT_TRUE(series.ok()) << series.status().ToString();
  return series.ValueOr(SeriesData{});
}

TEST(TopGoldenTest, GoldenSeriesParses) {
  const SeriesData series = LoadGoldenSeries();
  EXPECT_EQ(series.version, 1u);
  EXPECT_EQ(series.tag, "s11:smoke");
  EXPECT_GT(series.samples.size(), 10u);
}

TEST(TopGoldenTest, ReportIsByteStable) {
  const SeriesData series = LoadGoldenSeries();
  EXPECT_EQ(RenderReport(series, TopOptions{}),
            ReadFile(GoldenPath("top_report.json")));
}

TEST(TopGoldenTest, ScreenIsByteStable) {
  const SeriesData series = LoadGoldenSeries();
  EXPECT_EQ(RenderScreen(series, TopOptions{}),
            ReadFile(GoldenPath("top_screen.txt")));
}

/// Pulls the integer after `"key": ` out of the flat report JSON.
uint64_t ReportNumber(const std::string& report, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = report.find(needle);
  EXPECT_NE(pos, std::string::npos) << key;
  if (pos == std::string::npos) return 0;
  return std::strtoull(report.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(TopGoldenTest, ReportNamesDominantPhaseCoveringLatency) {
  const SeriesData series = LoadGoldenSeries();
  const std::string report = RenderReport(series, TopOptions{});

  // The acceptance contract: a dominant phase is named...
  const size_t pos = report.find("\"dominant_phase\": \"");
  ASSERT_NE(pos, std::string::npos);
  const size_t start = pos + std::string("\"dominant_phase\": \"").size();
  const std::string dominant =
      report.substr(start, report.find('"', start) - start);
  EXPECT_FALSE(dominant.empty());

  // ...and the six phase sums cover measured end-to-end latency within
  // 5%.
  const uint64_t phase_sum = ReportNumber(report, "phase_sum_ns");
  const uint64_t e2e_sum = ReportNumber(report, "e2e_sum_ns");
  ASSERT_GT(e2e_sum, 0u);
  const double coverage = double(phase_sum) / double(e2e_sum);
  EXPECT_GE(coverage, 0.95);
  EXPECT_LE(coverage, 1.05);

  // The dominant phase really is the argmax of the per-phase sums.
  const std::string phase_needle = "\"" + dominant + "\": {\"sum_ns\": ";
  const size_t phase_pos = report.find(phase_needle);
  ASSERT_NE(phase_pos, std::string::npos);
  const uint64_t dominant_sum = std::strtoull(
      report.c_str() + phase_pos + phase_needle.size(), nullptr, 10);
  EXPECT_GT(dominant_sum, 0u);
  EXPECT_GE(dominant_sum * 2, phase_sum / 3);  // sanity: a real share
}

TEST(TopGoldenTest, ReportEscapesStringsFromTheSeries) {
  // A meta tag with escaped quotes passes the series schema check; the
  // report must carry it escaped again, or it is not JSON.
  std::string text = ReadFile(GoldenPath("top_series.jsonl"));
  const std::string tag = "\"tag\":\"s11:smoke\"";
  const size_t at = text.find(tag);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, tag.size(), "\"tag\":\"s11:\\\"smoke\\\"\"");
  ASSERT_TRUE(ValidateSeriesLines(text).ok());
  Result<SeriesData> series = ParseSeries(text);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_EQ(series->tag, "s11:\"smoke\"");

  JsonValue report;
  ASSERT_TRUE(ParseJson(RenderReport(*series, TopOptions{}), &report));
  const JsonValue* rendered_tag = report.Find("tag");
  ASSERT_NE(rendered_tag, nullptr);
  EXPECT_EQ(rendered_tag->str, "s11:\"smoke\"");
  const JsonValue* dominant = report.Find("dominant_phase");
  ASSERT_NE(dominant, nullptr);
  EXPECT_NE(report.Find("phases")->Find(dominant->str), nullptr);
}

TEST(TopGoldenTest, WindowedScreenFoldsOnlyTheTail) {
  const SeriesData series = LoadGoldenSeries();
  const std::string full = RenderScreen(series, TopOptions{});
  const std::string tail = RenderScreen(series, TopOptions{}, 3);
  EXPECT_NE(full, tail);
  EXPECT_NE(tail.find("3 ticks"), std::string::npos);
}

}  // namespace
}  // namespace oodb
