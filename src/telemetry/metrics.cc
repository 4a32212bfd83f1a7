#include "telemetry/metrics.h"

#include <algorithm>

namespace lumina::telemetry {

BucketBounds BucketBounds::exponential(std::int64_t first, double factor,
                                       int count) {
  BucketBounds b;
  b.upper.reserve(static_cast<std::size_t>(count));
  double bound = static_cast<double>(first);
  std::int64_t prev = 0;
  for (int i = 0; i < count; ++i) {
    // Round, then force strict monotonicity so bucket_for stays well
    // defined even for factors close to 1.
    auto v = static_cast<std::int64_t>(bound + 0.5);
    if (v <= prev) v = prev + 1;
    b.upper.push_back(v);
    prev = v;
    bound *= factor;
  }
  return b;
}

BucketBounds BucketBounds::linear(std::int64_t first, std::int64_t width,
                                  int count) {
  BucketBounds b;
  b.upper.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    b.upper.push_back(first + width * i);
  }
  return b;
}

std::size_t BucketBounds::bucket_for(std::int64_t v) const {
  const auto it = std::lower_bound(upper.begin(), upper.end(), v);
  return static_cast<std::size_t>(it - upper.begin());
}

Histogram::Histogram(BucketBounds bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.num_buckets(), 0) {}

void Histogram::observe(std::int64_t v) {
  ++counts_[bounds_.bucket_for(v)];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_.upper;
  snap.counts = counts_;
  snap.count = count_;
  snap.sum = sum_;
  if (count_ > 0) {
    snap.min = min_;
    snap.max = max_;
  }
  return snap;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) {
    const auto it = gauges.find(name);
    if (it == gauges.end()) {
      gauges[name] = value;
    } else {
      it->second = std::max(it->second, value);
    }
  }
  for (const auto& [name, theirs] : other.histograms) {
    const auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = theirs;
      continue;
    }
    HistogramSnapshot& ours = it->second;
    if (ours.bounds == theirs.bounds) {
      for (std::size_t i = 0; i < ours.counts.size(); ++i) {
        ours.counts[i] += theirs.counts[i];
      }
    }
    const bool ours_empty = ours.count == 0;
    ours.count += theirs.count;
    ours.sum += theirs.sum;
    if (theirs.count > 0) {
      ours.min = ours_empty ? theirs.min : std::min(ours.min, theirs.min);
      ours.max = ours_empty ? theirs.max : std::max(ours.max, theirs.max);
    }
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const BucketBounds& bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->snapshot();
  }
  return snap;
}

}  // namespace lumina::telemetry
