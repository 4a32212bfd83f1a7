#include "campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "fuzz/targets.h"
#include "orchestrator/results_io.h"
#include "util/file_io.h"

namespace lumina {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Turns a run name into a filesystem-safe slug ("sweep/msg=4096/rep0" ->
/// "sweep-msg-4096-rep0").
std::string slugify(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_';
    out.push_back(keep ? c : '-');
  }
  return out;
}

std::string format_summary(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

std::string format_summary(const char* format, ...) {
  // A first pass sizes the string, so a row of any length stays whole.
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  const int length = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out(static_cast<std::size_t>(std::max(length, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, again);
  va_end(again);
  return out;
}

CampaignRunOutcome execute_run(const CampaignRunSpec& spec,
                               std::uint64_t seed) {
  CampaignRunOutcome out;
  out.name = spec.name;
  out.kind = spec.kind;
  out.seed = seed;
  const auto started = Clock::now();

  switch (spec.kind) {
    case CampaignRunKind::kExperiment: {
      Orchestrator::Options options;
      options.seed = seed;
      Orchestrator orch(spec.config, options);
      const TestResult& result = orch.run();
      out.metrics.sim_duration = result.duration;
      out.metrics.sim_events = orch.events_processed();
      out.ok = result.integrity.ok() && result.finished;
      std::size_t completed = 0;
      for (const auto& flow : result.flows) completed += flow.completed();
      out.summary = format_summary(
          "integrity=%s finished=%s trace=%zu flows=%zu msgs=%zu",
          result.integrity.ok() ? "ok" : "FAILED",
          result.finished ? "yes" : "no", result.trace.size(),
          result.flows.size(), completed);
      out.result = result;
      break;
    }
    case CampaignRunKind::kSuite: {
      const DetectionResult detection = detect_issue(spec.issue, spec.nic);
      out.ok = true;  // the probe itself ran; "affected" is a finding
      out.summary = format_summary(
          "%s %s: %s", detection.affected ? "AFFECTED" : "clean",
          issue_slug(spec.issue).c_str(), detection.evidence.c_str());
      out.detection = detection;
      break;
    }
    case CampaignRunKind::kFuzz: {
      const auto target = make_fuzz_target(spec.fuzz_target, spec.nic);
      if (!target) {
        out.ok = false;
        out.summary = "unknown fuzz target: " + spec.fuzz_target;
        break;
      }
      GeneticFuzzer::Options options = spec.fuzz_options;
      options.seed = seed;
      FuzzOutcome fuzz = GeneticFuzzer(*target, options).run();
      double best = 0;
      for (const auto& it : fuzz.history) best = std::max(best, it.score);
      out.summary = format_summary(
          "iterations=%d anomaly=%s best-score=%.3f", fuzz.iterations,
          fuzz.anomaly.has_value() ? "yes" : "no", best);
      out.fuzz = std::move(fuzz);
      break;
    }
  }

  out.metrics.wall_ms = elapsed_ms(started);
  return out;
}

}  // namespace

std::string to_string(CampaignRunKind kind) {
  switch (kind) {
    case CampaignRunKind::kExperiment: return "experiment";
    case CampaignRunKind::kSuite: return "suite";
    case CampaignRunKind::kFuzz: return "fuzz";
  }
  return "?";
}

CampaignReport run_campaign(const Campaign& campaign,
                            const CampaignOptions& options) {
  if (options.shards != 1) {
    throw std::invalid_argument(
        "CampaignOptions::shards is retired: the sharded event kernel was "
        "removed and every run uses one Simulator (got " +
        std::to_string(options.shards) + ")");
  }
  const auto started = Clock::now();
  CampaignReport report;
  report.name = campaign.name;
  report.seed = options.seed;
  report.jobs = options.jobs;
  report.runs = parallel_map<CampaignRunOutcome>(
      campaign.runs.size(), options.jobs, [&](std::size_t i) {
        return execute_run(campaign.runs[i], derive_run_seed(options.seed, i));
      });
  report.wall_ms = elapsed_ms(started);
  return report;
}

std::string campaign_summary_csv(const CampaignReport& report) {
  // Every column is deterministic: simulated time and event counts are
  // functions of (config, seed); wall clock is deliberately absent.
  std::string csv = "index,name,kind,seed,ok,sim_duration_ns,sim_events,"
                    "summary\n";
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const CampaignRunOutcome& run = report.runs[i];
    csv += format_summary(
        "%zu,%s,%s,0x%llx,%s,%lld,%llu,%s\n", i, run.name.c_str(),
        to_string(run.kind).c_str(),
        static_cast<unsigned long long>(run.seed), run.ok ? "ok" : "FAILED",
        static_cast<long long>(run.metrics.sim_duration),
        static_cast<unsigned long long>(run.metrics.sim_events),
        run.summary.c_str());
  }
  return csv;
}

telemetry::RunReport campaign_report_json(const CampaignReport& report) {
  telemetry::RunReport out;
  out.name = report.name;
  double run_wall_ms = 0;
  for (const CampaignRunOutcome& run : report.runs) {
    if (run.result.has_value()) out.deterministic.merge(run.result->telemetry);
    out.deterministic.counters["campaign.runs_total"] += 1;
    if (run.ok) out.deterministic.counters["campaign.runs_ok"] += 1;
    run_wall_ms += run.metrics.wall_ms;
  }
  out.wall["wall_ms"] = report.wall_ms;
  out.wall["jobs"] = report.jobs;
  // Fraction of worker capacity spent inside runs: 1.0 means every worker
  // was busy for the whole campaign; low values flag scheduling overhead
  // or load imbalance (one straggler run pinning the wall clock).
  if (report.wall_ms > 0 && report.jobs > 0) {
    out.wall["worker_utilization"] = run_wall_ms / (report.jobs * report.wall_ms);
  }
  return out;
}

bool write_campaign_artifacts(const CampaignReport& report,
                              const std::string& dir,
                              std::string* failed_path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (failed_path != nullptr) *failed_path = dir;
    return false;
  }

  const std::string summary_path = dir + "/summary.csv";
  if (!write_file(summary_path, campaign_summary_csv(report))) {
    if (failed_path != nullptr) *failed_path = summary_path;
    return false;
  }

  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const CampaignRunOutcome& run = report.runs[i];
    if (!run.result.has_value()) continue;
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "run_%03zu_", i);
    const std::string run_dir = dir + "/" + prefix + slugify(run.name);
    if (!write_results(*run.result, run_dir, failed_path)) return false;
  }

  // The artifact tree is contractually byte-identical for any --jobs
  // value; the wall section (wall_ms, jobs, utilization) legitimately
  // varies, so the in-tree report carries only the deterministic section.
  // `lumina_run --campaign --report <path>` emits the full report.
  telemetry::RunReport tree_report = campaign_report_json(report);
  tree_report.wall.clear();
  return telemetry::write_report(tree_report, dir + "/report.json",
                                 failed_path);
}

}  // namespace lumina
