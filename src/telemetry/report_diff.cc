#include "telemetry/report_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace lumina::telemetry {
namespace {

std::string fmt(const char* format, double a, double b, double rel) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, rel);
  return buf;
}

/// Emits a diff entry for one scalar unless it is within tolerance. The
/// integers compare exactly first: u64 counters past 2^53 (corpus digests)
/// can round to one double, and tolerance 0 means exact equality.
template <typename Int>
void compare_scalar(const std::string& metric, Int a_value, Int b_value,
                    const DiffOptions& options, DiffResult* out) {
  ++out->compared;
  if (a_value == b_value) return;
  const auto a = static_cast<double>(a_value);
  const auto b = static_cast<double>(b_value);
  const double scale = std::max(std::fabs(a), std::fabs(b));
  const double rel = scale == 0 ? 0 : std::fabs(b - a) / scale;
  const double tolerance = tolerance_for(options, metric);
  MetricDiff diff;
  diff.metric = metric;
  diff.a = a;
  diff.b = b;
  diff.relative = rel;
  diff.failed = tolerance == 0 || rel > tolerance;
  diff.detail = fmt("%.6g -> %.6g (rel %.4f)", a, b, rel);
  out->diffs.push_back(std::move(diff));
}

void report_missing(const std::string& metric, bool in_a, double value,
                    const DiffOptions& options, DiffResult* out) {
  ++out->compared;
  MetricDiff diff;
  diff.metric = metric;
  diff.a = in_a ? value : 0;
  diff.b = in_a ? 0 : value;
  diff.relative = 1;
  diff.failed = !options.allow_missing;
  diff.detail = in_a ? "only in baseline" : "only in candidate";
  out->diffs.push_back(std::move(diff));
}

template <typename Map>
void compare_scalar_maps(const char* section, const Map& a, const Map& b,
                         const DiffOptions& options, DiffResult* out) {
  std::set<std::string> names;
  for (const auto& [name, value] : a) names.insert(name);
  for (const auto& [name, value] : b) names.insert(name);
  for (const auto& name : names) {
    const std::string metric = std::string(section) + "/" + name;
    const auto ia = a.find(name);
    const auto ib = b.find(name);
    if (ia == a.end()) {
      report_missing(metric, false, static_cast<double>(ib->second), options,
                     out);
    } else if (ib == b.end()) {
      report_missing(metric, true, static_cast<double>(ia->second), options,
                     out);
    } else {
      compare_scalar(metric, ia->second, ib->second, options, out);
    }
  }
}

void compare_histograms(
    const std::map<std::string, HistogramSnapshot>& a,
    const std::map<std::string, HistogramSnapshot>& b,
    const DiffOptions& options, DiffResult* out) {
  std::set<std::string> names;
  for (const auto& [name, value] : a) names.insert(name);
  for (const auto& [name, value] : b) names.insert(name);
  for (const auto& name : names) {
    const std::string metric = "histograms/" + name;
    const auto ia = a.find(name);
    const auto ib = b.find(name);
    if (ia == a.end() || ib == b.end()) {
      const auto& present = ia == a.end() ? ib->second : ia->second;
      report_missing(metric, ib == b.end(),
                     static_cast<double>(present.count), options, out);
      continue;
    }
    const HistogramSnapshot& ha = ia->second;
    const HistogramSnapshot& hb = ib->second;
    if (ha.bounds != hb.bounds) {
      ++out->compared;
      MetricDiff diff;
      diff.metric = metric;
      diff.relative = 1;
      diff.failed = true;
      diff.detail = "bucket bounds differ";
      out->diffs.push_back(std::move(diff));
      continue;
    }
    // Summary stats under tolerance; the bucket vector is summarized by
    // its largest single-bucket deviation so one migrated latency mode
    // cannot hide inside an unchanged total.
    compare_scalar(metric + "/count", ha.count, hb.count, options, out);
    compare_scalar(metric + "/sum", ha.sum, hb.sum, options, out);
    compare_scalar(metric + "/min", ha.min, hb.min, options, out);
    compare_scalar(metric + "/max", ha.max, hb.max, options, out);
    for (std::size_t i = 0; i < ha.counts.size(); ++i) {
      compare_scalar(metric + "/bucket" + std::to_string(i), ha.counts[i],
                     hb.counts[i], options, out);
    }
  }
}

}  // namespace

double tolerance_for(const DiffOptions& options, const std::string& metric) {
  // Overrides may name the full diff path ("counters/injector.roce_rx") or
  // the bare metric ("injector." covering all injector metrics): prefixes
  // are tried against both spellings, longest match winning.
  const std::size_t slash = metric.find('/');
  const std::string bare =
      slash == std::string::npos ? metric : metric.substr(slash + 1);
  std::size_t best_len = 0;
  double best = options.tolerance;
  for (const auto& [prefix, tol] : options.per_metric) {
    const bool matches =
        metric.compare(0, prefix.size(), prefix) == 0 ||
        bare.compare(0, prefix.size(), prefix) == 0;
    if (matches && prefix.size() >= best_len) {
      best_len = prefix.size();
      best = tol;
    }
  }
  return best;
}

DiffResult diff_reports(const RunReport& a, const RunReport& b,
                        const DiffOptions& options) {
  DiffResult result;
  compare_scalar_maps("counters", a.deterministic.counters,
                      b.deterministic.counters, options, &result);
  compare_scalar_maps("gauges", a.deterministic.gauges,
                      b.deterministic.gauges, options, &result);
  compare_histograms(a.deterministic.histograms, b.deterministic.histograms,
                     options, &result);
  return result;
}

std::string format_diff(const DiffResult& result) {
  std::string out;
  for (const auto& d : result.diffs) {
    out += d.failed ? "FAIL " : "ok   ";
    out += d.metric;
    out += ": ";
    out += d.detail;
    out += "\n";
  }
  char line[96];
  std::snprintf(line, sizeof(line),
                "%zu metrics compared, %zu differ, %zu outside tolerance\n",
                result.compared, result.diffs.size(), result.failures());
  out += line;
  return out;
}

}  // namespace lumina::telemetry
