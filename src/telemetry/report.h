// report.json — the machine-checkable telemetry artifact every run emits
// (docs/telemetry.md).
//
// Layout:
//
//   {
//     "schema": "lumina.report.v1",
//     "name": "<run or campaign name>",
//     "deterministic": { "counters": {...}, "gauges": {...},
//                        "histograms": {...} },
//     "wall": { "wall_ms": 12.5, ... }
//   }
//
// The "deterministic" object is a pure function of (config, seed): every
// value is an integer, keys are sorted, and the serializer uses one fixed
// layout — so the section is byte-identical across machines, thread
// counts, and repeated runs, and regression tooling (tools/report_diff,
// the CI bench gate) can compare it directly. Wall-clock data lives only
// in the "wall" object, which comparisons ignore.
#pragma once

#include <map>
#include <string>

#include "telemetry/metrics.h"

namespace lumina::telemetry {

struct RunReport {
  std::string name;
  MetricsSnapshot deterministic;
  /// Nondeterministic extras (wall clock, utilization). Doubles are
  /// serialized with %.3f; never compared by report_diff.
  std::map<std::string, double> wall;
};

/// Full report text (schema + name + deterministic + wall), ending in \n.
std::string serialize_report(const RunReport& report);

/// Exactly the bytes of the report's "deterministic" object as embedded in
/// serialize_report() output — the unit of byte-identity the determinism
/// tests compare.
std::string serialize_deterministic(const MetricsSnapshot& snapshot);

/// Writes serialize_report() to `path`; false on I/O failure (path recorded
/// in `failed_path` when non-null).
bool write_report(const RunReport& report, const std::string& path,
                  std::string* failed_path = nullptr);

/// Parses a report.json back (schema checked). Throws JsonError on
/// malformed input.
RunReport read_report_text(const std::string& text);
RunReport read_report_file(const std::string& path);

}  // namespace lumina::telemetry
