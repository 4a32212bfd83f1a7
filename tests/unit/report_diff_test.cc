// Unit tests for the report comparison oracle behind tools/report_diff and
// the CI bench gate: pass/fail classification, the exact tolerance
// boundary, per-metric prefix overrides, and missing-metric handling.
#include <gtest/gtest.h>

#include <string>

#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/report_diff.h"

namespace lumina::telemetry {
namespace {

RunReport report_with_counter(const std::string& name, std::uint64_t value) {
  RunReport report;
  report.name = "r";
  report.deterministic.counters[name] = value;
  return report;
}

TEST(ReportDiff, IdenticalReportsPass) {
  const RunReport a = report_with_counter("m", 100);
  const DiffResult result = diff_reports(a, a, DiffOptions{});
  EXPECT_TRUE(result.passed());
  EXPECT_TRUE(result.diffs.empty());
  EXPECT_EQ(result.compared, 1u);
}

TEST(ReportDiff, ZeroToleranceFailsAnyChange) {
  const RunReport a = report_with_counter("m", 100);
  const RunReport b = report_with_counter("m", 101);
  const DiffResult result = diff_reports(a, b, DiffOptions{});
  EXPECT_FALSE(result.passed());
  ASSERT_EQ(result.diffs.size(), 1u);
  EXPECT_EQ(result.diffs[0].metric, "counters/m");
  // u64 digests one apart round to the same double; they still differ.
  const RunReport c = report_with_counter("m", 18446744073709551615ull);
  const RunReport d = report_with_counter("m", 18446744073709551614ull);
  EXPECT_FALSE(diff_reports(c, d, DiffOptions{}).passed());
}

TEST(ReportDiff, ToleranceBoundaryIsInclusive) {
  // 100 -> 125: relative = 25 / 125 = 0.2 exactly.
  const RunReport a = report_with_counter("m", 100);
  const RunReport b = report_with_counter("m", 125);

  DiffOptions at_boundary;
  at_boundary.tolerance = 0.2;
  EXPECT_TRUE(diff_reports(a, b, at_boundary).passed());

  DiffOptions below;
  below.tolerance = 0.199;
  const DiffResult failed = diff_reports(a, b, below);
  EXPECT_FALSE(failed.passed());
  ASSERT_EQ(failed.diffs.size(), 1u);
  EXPECT_NEAR(failed.diffs[0].relative, 0.2, 1e-12);
}

TEST(ReportDiff, WallSectionIsNeverCompared) {
  RunReport a = report_with_counter("m", 100);
  RunReport b = report_with_counter("m", 100);
  a.wall["wall_ms"] = 1.0;
  b.wall["wall_ms"] = 100000.0;
  EXPECT_TRUE(diff_reports(a, b, DiffOptions{}).passed());
}

TEST(ReportDiff, PerMetricOverrideLoosensOneSubsystem) {
  RunReport a;
  a.deterministic.counters["noisy.m"] = 100;
  a.deterministic.counters["stable.m"] = 100;
  RunReport b;
  b.deterministic.counters["noisy.m"] = 150;   // rel 0.333
  b.deterministic.counters["stable.m"] = 150;  // rel 0.333

  DiffOptions options;
  options.tolerance = 0.01;
  options.per_metric["noisy."] = 0.5;  // bare-name prefix
  const DiffResult result = diff_reports(a, b, options);
  EXPECT_FALSE(result.passed());
  ASSERT_EQ(result.diffs.size(), 2u);
  EXPECT_EQ(result.failures(), 1u);
  for (const auto& d : result.diffs) {
    EXPECT_EQ(d.failed, d.metric == "counters/stable.m") << d.metric;
  }
}

TEST(ReportDiff, LongestPrefixOverrideWins) {
  DiffOptions options;
  options.tolerance = 0.1;
  options.per_metric["rnic."] = 0.5;
  options.per_metric["rnic.requester."] = 0.0;
  EXPECT_DOUBLE_EQ(tolerance_for(options, "counters/rnic.responder.x"), 0.5);
  EXPECT_DOUBLE_EQ(tolerance_for(options, "counters/rnic.requester.x"), 0.0);
  EXPECT_DOUBLE_EQ(tolerance_for(options, "counters/host.x"), 0.1);
}

TEST(ReportDiff, MissingMetricFailsUnlessAllowed) {
  const RunReport a = report_with_counter("m", 100);
  const RunReport b;  // empty candidate
  EXPECT_FALSE(diff_reports(a, b, DiffOptions{}).passed());

  DiffOptions allow;
  allow.allow_missing = true;
  const DiffResult result = diff_reports(a, b, allow);
  EXPECT_TRUE(result.passed());
  ASSERT_EQ(result.diffs.size(), 1u);  // still reported, just not fatal
  EXPECT_EQ(result.diffs[0].detail, "only in baseline");
}

TEST(ReportDiff, HistogramBucketShiftFailsDespiteStableTotal) {
  // One observation migrates buckets; count/sum totals barely move but the
  // per-bucket comparison must notice.
  Histogram ha(BucketBounds::linear(10, 10, 2));
  ha.observe(5);
  ha.observe(5);
  Histogram hb(BucketBounds::linear(10, 10, 2));
  hb.observe(5);
  hb.observe(15);

  RunReport a;
  a.deterministic.histograms["h"] = ha.snapshot();
  RunReport b;
  b.deterministic.histograms["h"] = hb.snapshot();

  DiffOptions options;
  options.tolerance = 0.45;  // sum moved 10->20 under 0.5... still compare
  const DiffResult result = diff_reports(a, b, options);
  EXPECT_FALSE(result.passed());
  bool bucket_failed = false;
  for (const auto& d : result.diffs) {
    if (d.failed && d.metric.find("/bucket") != std::string::npos) {
      bucket_failed = true;
    }
  }
  EXPECT_TRUE(bucket_failed);
}

TEST(ReportDiff, MismatchedHistogramBoundsFail) {
  Histogram ha(BucketBounds::linear(10, 10, 2));
  Histogram hb(BucketBounds::linear(10, 10, 3));
  RunReport a;
  a.deterministic.histograms["h"] = ha.snapshot();
  RunReport b;
  b.deterministic.histograms["h"] = hb.snapshot();
  DiffOptions loose;
  loose.tolerance = 100.0;
  const DiffResult result = diff_reports(a, b, loose);
  EXPECT_FALSE(result.passed());
  ASSERT_EQ(result.diffs.size(), 1u);
  EXPECT_EQ(result.diffs[0].detail, "bucket bounds differ");
}

TEST(ReportDiff, FormatDiffNamesFailures) {
  const RunReport a = report_with_counter("m", 100);
  const RunReport b = report_with_counter("m", 200);
  const std::string text = format_diff(diff_reports(a, b, DiffOptions{}));
  EXPECT_NE(text.find("FAIL counters/m"), std::string::npos);
  EXPECT_NE(text.find("1 outside tolerance"), std::string::npos);
}

}  // namespace
}  // namespace lumina::telemetry
