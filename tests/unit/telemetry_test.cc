// Unit tests for the telemetry layer (docs/telemetry.md): histogram bucket
// math, snapshot ordering and campaign merging, the NIC trace tracks and
// the bounded trace ring, the JSON reader, and the report.json serializer
// round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/json_lite.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

namespace lumina::telemetry {
namespace {

// -- bucket math ----------------------------------------------------------

TEST(BucketBounds, ExponentialDoublesEachBound) {
  const BucketBounds bounds = BucketBounds::exponential(16, 2.0, 5);
  EXPECT_EQ(bounds.upper, (std::vector<std::int64_t>{16, 32, 64, 128, 256}));
  EXPECT_EQ(bounds.num_buckets(), 6u);  // 5 bounds + overflow
}

TEST(BucketBounds, LinearStepsByWidth) {
  const BucketBounds bounds = BucketBounds::linear(10, 5, 4);
  EXPECT_EQ(bounds.upper, (std::vector<std::int64_t>{10, 15, 20, 25}));
}

TEST(BucketBounds, BucketForUsesInclusiveUpperBounds) {
  const BucketBounds bounds = BucketBounds::exponential(16, 2.0, 3);
  // Bounds {16, 32, 64}: four buckets.
  EXPECT_EQ(bounds.bucket_for(-5), 0u);
  EXPECT_EQ(bounds.bucket_for(0), 0u);
  EXPECT_EQ(bounds.bucket_for(16), 0u);   // inclusive
  EXPECT_EQ(bounds.bucket_for(17), 1u);
  EXPECT_EQ(bounds.bucket_for(32), 1u);
  EXPECT_EQ(bounds.bucket_for(64), 2u);
  EXPECT_EQ(bounds.bucket_for(65), 3u);   // overflow bucket
  EXPECT_EQ(bounds.bucket_for(1 << 30), 3u);
}

// -- counters and gauges --------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeRecordMaxKeepsHighWater) {
  Gauge g;
  g.record_max(10);
  g.record_max(5);
  EXPECT_EQ(g.value(), 10);
  g.record_max(11);
  EXPECT_EQ(g.value(), 11);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
}

// -- histograms -----------------------------------------------------------

TEST(Histogram, SnapshotMergesObservationsAndStats) {
  Histogram h(BucketBounds::exponential(10, 2.0, 3));  // {10, 20, 40}
  h.observe(5);
  h.observe(15);
  h.observe(15);
  h.observe(1000);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.counts, (std::vector<std::uint64_t>{1, 2, 0, 1}));
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 5 + 15 + 15 + 1000);
  EXPECT_EQ(snap.min, 5);
  EXPECT_EQ(snap.max, 1000);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h(BucketBounds::linear(1, 1, 2));
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
}

// -- registry and snapshots -----------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndSnapshotIsSorted) {
  MetricsRegistry reg;
  Counter& c = reg.counter("b.second");
  EXPECT_EQ(&c, &reg.counter("b.second"));  // same handle on re-resolve
  reg.counter("a.first").inc(7);
  c.inc(2);
  reg.gauge("z.gauge").set(-5);
  reg.histogram("m.hist", BucketBounds::linear(1, 1, 2)).observe(1);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "a.first");  // sorted map
  EXPECT_EQ(snap.counters.at("a.first"), 7u);
  EXPECT_EQ(snap.counters.at("b.second"), 2u);
  EXPECT_EQ(snap.gauges.at("z.gauge"), -5);
  EXPECT_EQ(snap.histograms.at("m.hist").count, 1u);
}

TEST(MetricsSnapshot, MergeSumsCountersAndMaxesGauges) {
  MetricsSnapshot a;
  a.counters["shared"] = 3;
  a.counters["only_a"] = 1;
  a.gauges["peak"] = 10;
  MetricsSnapshot b;
  b.counters["shared"] = 4;
  b.gauges["peak"] = 7;

  a.merge(b);
  EXPECT_EQ(a.counters["shared"], 7u);
  EXPECT_EQ(a.counters["only_a"], 1u);
  EXPECT_EQ(a.gauges["peak"], 10);  // max of 10 and 7
}

TEST(MetricsSnapshot, MergeAddsHistogramBucketsWhenBoundsMatch) {
  Histogram h1(BucketBounds::linear(10, 10, 2));
  h1.observe(5);
  h1.observe(25);
  Histogram h2(BucketBounds::linear(10, 10, 2));
  h2.observe(15);

  MetricsSnapshot a;
  a.histograms["h"] = h1.snapshot();
  MetricsSnapshot b;
  b.histograms["h"] = h2.snapshot();
  a.merge(b);

  const HistogramSnapshot& merged = a.histograms["h"];
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.counts, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(merged.sum, 5 + 25 + 15);
  EXPECT_EQ(merged.min, 5);
  EXPECT_EQ(merged.max, 25);
}

// -- trace ring -----------------------------------------------------------

TEST(TraceTracks, NicTracksAreDenseAndLegacyCompatible) {
  // Hosts 0/1 keep the historical requester/responder track IDs (byte
  // compatibility of two-host chrome traces); hosts beyond get dense IDs
  // from kTrackDynamicBase up.
  static_assert(nic_track(0) == kTrackRequester);
  static_assert(nic_track(1) == kTrackResponder);
  static_assert(nic_track(2) == kTrackDynamicBase);
  static_assert(nic_track(3) == kTrackDynamicBase + 1);
  static_assert(nic_track(4) == kTrackDynamicBase + 2);
  SUCCEED();
}

TEST(TraceSink, RingOverwritesOldestAndCountsDrops) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.instant("cat", "ev", i * 100, kTrackSim, i);
  }
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.events_in_order();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().arg, 6);  // oldest retained
  EXPECT_EQ(events.back().arg, 9);
}

/// Records `n` instants (arg = index) into a sink of `capacity` and checks
/// that it keeps exactly the newest min(n, capacity) of them, oldest first,
/// in events_in_order() and chrome_json() alike.
void expect_ring_window(std::size_t capacity, int n) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + ", " +
               std::to_string(n) + " events");
  TraceSink sink(capacity);
  for (int i = 0; i < n; ++i) {
    sink.instant("cat", "ev", i * 100, kTrackSim, i);
  }
  const auto total = static_cast<std::size_t>(n);
  const std::size_t kept = std::min(total, capacity);
  const std::size_t first = total - kept;
  EXPECT_EQ(sink.recorded(), total);
  EXPECT_EQ(sink.size(), kept);
  EXPECT_EQ(sink.dropped(), first);

  const auto events = sink.events_in_order();
  ASSERT_EQ(events.size(), kept);
  for (std::size_t i = 0; i < kept; ++i) {
    EXPECT_EQ(events[i].arg, static_cast<std::int64_t>(first + i));
    EXPECT_EQ(events[i].ts, static_cast<Tick>((first + i) * 100));
  }
  const JsonValue doc = parse_json(sink.chrome_json());
  const auto& json = doc.at("traceEvents").as_array();
  ASSERT_EQ(json.size(), kept);
  for (std::size_t i = 0; i < kept; ++i) {
    EXPECT_EQ(json[i].at("args").at("v").as_int(),
              static_cast<std::int64_t>(first + i));
  }
}

TEST(TraceSink, RingAppendsUntilCapacityThenWraps) {
  // Empty, fewer than capacity, exactly capacity, the first wrap, and a
  // wrap part-way round the ring; then the same at capacity 1.
  for (const int n : {0, 3, 8, 9, 21}) expect_ring_window(8, n);
  for (const int n : {0, 1, 5}) expect_ring_window(1, n);
}

TEST(TraceSink, EmptySinkExportsNoEvents) {
  const TraceSink sink;
  EXPECT_EQ(sink.capacity(), TraceSink::kDefaultCapacity);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_TRUE(sink.events_in_order().empty());
  EXPECT_EQ(sink.chrome_json(), "{\"traceEvents\":[]}");
}

TEST(TraceSink, ChromeJsonIsParsableAndCarriesTrackNames) {
  TraceSink sink(16);
  sink.set_track_name(kTrackSim, "sim");
  sink.instant("sim", "tick", 1500, kTrackSim, 3);
  sink.complete("host", "msg", 1000, 2500, kTrackHost, 1);

  const JsonValue doc = parse_json(sink.chrome_json());
  const auto& events = doc.at("traceEvents").as_array();
  // 1 thread_name metadata event + 2 recorded events.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "sim");
  EXPECT_EQ(events[1].at("name").as_string(), "tick");
  // 1500 ns renders as 1.500 us with integer math.
  EXPECT_EQ(events[1].at("ts").as_double(), 1.5);
  EXPECT_EQ(events[2].at("ph").as_string(), "X");
  EXPECT_EQ(events[2].at("dur").as_double(), 2.5);
}

// -- json reader ----------------------------------------------------------

TEST(JsonLite, ParsesScalarsArraysObjects) {
  const JsonValue doc = parse_json(
      R"({"i": -42, "d": 2.5, "s": "a\"b", "b": true, "n": null,
          "arr": [1, 2, 3]})");
  EXPECT_EQ(doc.at("i").as_int(), -42);
  EXPECT_EQ(doc.at("d").as_double(), 2.5);
  EXPECT_EQ(doc.at("s").as_string(), "a\"b");
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_EQ(doc.at("n").kind(), JsonValue::Kind::kNull);
  ASSERT_EQ(doc.at("arr").as_array().size(), 3u);
  EXPECT_EQ(doc.at("arr").as_array()[2].as_int(), 3);
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(JsonLite, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": }"), JsonError);
  EXPECT_THROW(parse_json("[1, 2,]"), JsonError);
  EXPECT_THROW(parse_json("{} trailing"), JsonError);
  // Integers outside [INT64_MIN, UINT64_MAX], and reads of a value outside
  // the asked type's range.
  EXPECT_THROW(parse_json("18446744073709551616"), JsonError);
  EXPECT_THROW(parse_json("-9223372036854775809"), JsonError);
  EXPECT_THROW(parse_json("18446744073709551615").as_int(), JsonError);
  EXPECT_THROW(parse_json("-1").as_uint(), JsonError);
}

// -- report round-trip ----------------------------------------------------

RunReport sample_report() {
  RunReport report;
  report.name = "sample";
  report.deterministic.counters["sim.events_processed"] = 123;
  report.deterministic.gauges["sim.queue_depth_max"] = -7;
  Histogram h(BucketBounds::exponential(10, 2.0, 3));
  h.observe(15);
  h.observe(100);
  report.deterministic.histograms["lat_ns"] = h.snapshot();
  report.wall["wall_ms"] = 12.5;
  return report;
}

TEST(Report, SerializeReadRoundTrip) {
  const RunReport report = sample_report();
  const RunReport parsed = read_report_text(serialize_report(report));
  EXPECT_EQ(parsed.name, "sample");
  EXPECT_EQ(parsed.deterministic.counters, report.deterministic.counters);
  EXPECT_EQ(parsed.deterministic.gauges, report.deterministic.gauges);
  const HistogramSnapshot& h = parsed.deterministic.histograms.at("lat_ns");
  const HistogramSnapshot& expect =
      report.deterministic.histograms.at("lat_ns");
  EXPECT_EQ(h.bounds, expect.bounds);
  EXPECT_EQ(h.counts, expect.counts);
  EXPECT_EQ(h.count, expect.count);
  EXPECT_EQ(h.sum, expect.sum);
  EXPECT_EQ(h.min, expect.min);
  EXPECT_EQ(h.max, expect.max);
  EXPECT_DOUBLE_EQ(parsed.wall.at("wall_ms"), 12.5);
}

TEST(Report, RoundTripsFullRangeCounterAndNegativeGauge) {
  // u64 counters use their whole range (a fuzz campaign stores each shard's
  // FNV corpus digest as one); gauges are signed.
  RunReport report = sample_report();
  report.deterministic.counters["fuzz.shard_000.corpus_digest"] =
      18446744073709551615ull;
  report.deterministic.gauges["sim.queue_depth_max"] = -9223372036854775807;
  const RunReport parsed = read_report_text(serialize_report(report));
  EXPECT_EQ(parsed.deterministic.counters, report.deterministic.counters);
  EXPECT_EQ(parsed.deterministic.gauges, report.deterministic.gauges);
  EXPECT_EQ(serialize_report(parsed), serialize_report(report));
}

TEST(Report, RejectsUnknownSchema) {
  EXPECT_THROW(
      read_report_text(R"({"schema": "other.v9", "name": "x",
                           "deterministic": {"counters": {}, "gauges": {},
                                             "histograms": {}},
                           "wall": {}})"),
      JsonError);
}

}  // namespace
}  // namespace lumina::telemetry
