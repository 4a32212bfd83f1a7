// Run-report metrics registry (docs/telemetry.md).
//
// Three metric kinds, all integer-valued so snapshots serialize without any
// floating-point formatting ambiguity:
//
//   Counter   — monotonically increasing event count (u64);
//   Gauge     — a level or high-water mark (i64);
//   Histogram — fixed-bucket latency/size distribution: one bucket-count
//               vector plus count, sum, min and max.
//
// A MetricsRegistry owns named metrics; handles returned by counter() /
// gauge() / histogram() are stable for the registry's lifetime, so hot
// paths resolve a name once and then touch only a plain integer.
// snapshot() flattens everything into sorted std::maps — the deterministic
// section of report.json is a pure serialization of that snapshot.
//
// Registries are per-run and single-threaded: a run is one thread and owns
// its registry. A campaign's worker threads each populate their own run's
// registry, and the campaign layer merges the resulting snapshots in spec
// order, which keeps aggregated artifacts byte-identical for any --jobs
// value (integer sums are order-independent).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lumina::telemetry {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }

  /// Raises the gauge to `v` if `v` exceeds the current value (high-water
  /// mark semantics).
  void record_max(std::int64_t v) {
    if (v > v_) v_ = v;
  }

  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Inclusive upper bucket bounds, strictly increasing. A histogram with
/// bounds {b0, b1, ..., bn-1} has n+1 buckets: value v lands in the first
/// bucket whose bound satisfies v <= bound, or in the final overflow
/// bucket when v exceeds every bound.
struct BucketBounds {
  std::vector<std::int64_t> upper;

  /// {first, first*factor, ...} rounded to integers, `count` bounds.
  static BucketBounds exponential(std::int64_t first, double factor,
                                  int count);
  /// {first, first+width, ...}, `count` bounds.
  static BucketBounds linear(std::int64_t first, std::int64_t width,
                             int count);

  std::size_t num_buckets() const { return upper.size() + 1; }
  /// Index of the bucket `v` falls into (binary search, overflow last).
  std::size_t bucket_for(std::int64_t v) const;
};

/// Merged view of one histogram: counts per bucket plus integer summary
/// stats. min/max are 0 when the histogram is empty.
struct HistogramSnapshot {
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries.
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

class Histogram {
 public:
  explicit Histogram(BucketBounds bounds);

  /// Records one observation.
  void observe(std::int64_t v);

  const BucketBounds& bounds() const { return bounds_; }

  HistogramSnapshot snapshot() const;

 private:
  const BucketBounds bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.num_buckets() entries.
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Sorted, plain-data view of a whole registry — the deterministic section
/// of report.json serializes exactly this.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Campaign aggregation: counters and histogram buckets/sums add, gauges
  /// take the max (they are levels / high-water marks). Histograms with
  /// mismatched bounds merge count/sum/min/max only.
  void merge(const MetricsSnapshot& other);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric named `name`, creating it on first use. The
  /// reference stays valid for the registry's lifetime. Registration is a
  /// map lookup; cache the handle rather than re-resolving on a hot path.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first registration; later calls return the
  /// existing histogram unchanged.
  Histogram& histogram(const std::string& name, const BucketBounds& bounds);

  MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace lumina::telemetry
