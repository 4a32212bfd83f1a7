// The Lumina test suite as a library (§4 + §6): one executable detector
// per bug / hidden behavior from Table 2. Each detector builds the probing
// workload, runs it through the full orchestrator pipeline, and judges the
// outcome from the trace, counters and analyzers — exactly what the
// per-section benches do, packaged for downstream users who want to screen
// an arbitrary device model.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "campaign/parallel.h"
#include "config/test_config.h"

namespace lumina {

/// The six findings of Table 2.
enum class KnownIssue {
  kNonWorkConservingEts,      // §6.2.1 — CX6 Dx
  kNoisyNeighbor,             // §6.2.2 — CX4 Lx
  kInteropMigReq,             // §6.2.3 — E810 sending to CX5
  kCounterInconsistency,      // §6.2.4 — CX4 Lx, E810
  kCnpRateLimiting,           // §6.3  — all NICs tested
  kAdaptiveRetransDeviation,  // §6.3  — all CX NICs
};

std::string to_string(KnownIssue issue);

/// Stable kebab-case identifier used by campaign YAML and artifact paths
/// (e.g. "cnp-rate-limiting").
std::string issue_slug(KnownIssue issue);
std::optional<KnownIssue> parse_known_issue(const std::string& slug);

struct DetectionResult {
  KnownIssue issue;
  NicType nic;
  bool affected = false;
  std::string evidence;  ///< One-line summary of what the probe saw.
};

/// Runs the probing workload for one issue against one NIC model.
DetectionResult detect_issue(KnownIssue issue, NicType nic);

/// Screens a NIC model against every known issue (Table 2, one column).
/// Each detector owns a private Simulator, so the probes fan out across
/// `options.jobs` worker threads; results come back in Table 2 order
/// regardless of thread count.
std::vector<DetectionResult> run_bug_suite(
    NicType nic, const CampaignOptions& options = CampaignOptions{});

/// All issues, in Table 2 order.
const std::vector<KnownIssue>& all_known_issues();

}  // namespace lumina
