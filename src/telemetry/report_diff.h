// Report comparison — the single regression oracle CI and humans share.
//
// Compares the deterministic sections of two reports metric-by-metric
// under per-metric relative tolerances. Wall-clock ("wall") sections are
// never compared. tools/report_diff is a thin CLI over this.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/report.h"

namespace lumina::telemetry {

struct DiffOptions {
  /// Relative tolerance applied to every metric without an override:
  /// |b - a| <= tolerance * max(|a|, |b|) passes. 0 means exact equality.
  double tolerance = 0.0;
  /// Per-metric overrides. Keys are prefixes matched against both the diff
  /// path ("counters/injector.roce_rx") and the bare metric name, longest
  /// match winning — so "rnic." covers every rnic metric and gates can
  /// loosen one noisy subsystem only.
  std::map<std::string, double> per_metric;
  /// When true, a metric present on only one side is reported but does not
  /// fail the diff (schema-migration escape hatch).
  bool allow_missing = false;
};

struct MetricDiff {
  std::string metric;     ///< Full name ("counters/injector.roce_rx").
  std::string detail;     ///< Human-readable explanation.
  double a = 0;           ///< Baseline value (0 when missing).
  double b = 0;           ///< Candidate value (0 when missing).
  double relative = 0;    ///< |b-a| / max(|a|,|b|); 1 for missing metrics.
  bool failed = false;    ///< Outside tolerance (or missing, unless allowed).
};

struct DiffResult {
  std::vector<MetricDiff> diffs;  ///< Only metrics that differ.
  std::size_t compared = 0;       ///< Metrics examined on either side.

  bool passed() const {
    for (const auto& d : diffs) {
      if (d.failed) return false;
    }
    return true;
  }
  std::size_t failures() const {
    std::size_t n = 0;
    for (const auto& d : diffs) n += d.failed ? 1 : 0;
    return n;
  }
};

/// Tolerance that applies to `metric`: the longest matching per-metric
/// prefix override, else the global default.
double tolerance_for(const DiffOptions& options, const std::string& metric);

/// Compares deterministic sections of `a` (baseline) and `b` (candidate).
DiffResult diff_reports(const RunReport& a, const RunReport& b,
                        const DiffOptions& options);

/// Human-readable rendering of the result, one line per differing metric.
std::string format_diff(const DiffResult& result);

}  // namespace lumina::telemetry
