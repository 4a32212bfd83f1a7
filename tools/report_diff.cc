// report_diff — compares the deterministic sections of two report.json
// files under per-metric relative tolerances (docs/telemetry.md). This is
// the CI bench-regression gate's oracle.
//
//   report_diff <baseline.json> <candidate.json>
//               [--tolerance T] [--metric prefix=T ...] [--allow-missing]
//
// Exit codes: 0 = within tolerance, 1 = regression (metrics outside
// tolerance or missing), 2 = usage or I/O error. Wall-clock sections are
// never compared.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "telemetry/json_lite.h"
#include "telemetry/report.h"
#include "telemetry/report_diff.h"

using namespace lumina::telemetry;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <candidate.json>\n"
               "          [--tolerance T] [--metric prefix=T ...] "
               "[--allow-missing]\n"
               "\n"
               "Compares the deterministic sections of two telemetry "
               "reports. A metric passes\n"
               "when |candidate - baseline| <= T * max(|baseline|, "
               "|candidate|); --metric\n"
               "overrides the tolerance for every metric matching the "
               "given name prefix\n"
               "(longest prefix wins). Wall-clock sections are ignored.\n"
               "T must be a finite number >= 0.\n"
               "Exit: 0 pass, 1 regression, 2 usage/IO error.\n",
               argv0);
}

/// Parses a whole-string tolerance. NaN and infinities are rejected: no
/// relative difference compares greater than NaN, so a NaN tolerance would
/// pass every metric.
bool parse_tolerance(const char* text, double* tol) {
  char* end = nullptr;
  *tol = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*tol) && *tol >= 0;
}

/// Parses "prefix=T" into an entry of options.per_metric.
bool parse_metric_override(const char* spec, DiffOptions* options) {
  const char* eq = std::strchr(spec, '=');
  if (eq == nullptr || eq == spec) {
    std::fprintf(stderr, "error: --metric wants prefix=T, got '%s'\n", spec);
    return false;
  }
  double tol = 0;
  if (!parse_tolerance(eq + 1, &tol)) {
    std::fprintf(stderr, "error: bad tolerance in '%s'\n", spec);
    return false;
  }
  options->per_metric[std::string(spec, eq)] = tol;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage(argv[0]);
    return 2;
  }
  const std::string baseline_path = argv[1];
  const std::string candidate_path = argv[2];
  if (baseline_path[0] == '-' || candidate_path[0] == '-') {
    usage(argv[0]);
    return 2;
  }

  DiffOptions options;
  for (int i = 3; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 < argc) return true;
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      return false;
    };
    if (std::strcmp(argv[i], "--tolerance") == 0) {
      if (!need_value("--tolerance")) return 2;
      if (!parse_tolerance(argv[++i], &options.tolerance)) {
        std::fprintf(stderr, "error: bad --tolerance '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--metric") == 0) {
      if (!need_value("--metric")) return 2;
      if (!parse_metric_override(argv[++i], &options)) return 2;
    } else if (std::strcmp(argv[i], "--allow-missing") == 0) {
      options.allow_missing = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  RunReport baseline;
  RunReport candidate;
  try {
    baseline = read_report_file(baseline_path);
  } catch (const JsonError& error) {
    std::fprintf(stderr, "error: %s: %s\n", baseline_path.c_str(),
                 error.what());
    return 2;
  }
  try {
    candidate = read_report_file(candidate_path);
  } catch (const JsonError& error) {
    std::fprintf(stderr, "error: %s: %s\n", candidate_path.c_str(),
                 error.what());
    return 2;
  }

  const DiffResult result = diff_reports(baseline, candidate, options);
  std::fputs(format_diff(result).c_str(), stdout);
  std::printf("%s\n", result.passed() ? "PASS" : "FAIL");
  return result.passed() ? 0 : 1;
}
