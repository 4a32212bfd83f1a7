// Campaign runner scaling: a 36-run campaign executed at --jobs 1/2/4/8.
//
// Two properties are demonstrated:
//   determinism — the aggregated artifacts (summary.csv + every per-run
//                 results file) are byte-identical at every job count;
//   scaling     — on a machine with >= 8 hardware threads, jobs=8 completes
//                 the campaign at least 3x faster than jobs=1. On smaller
//                 machines the speedup is reported but not enforced, since
//                 thread count cannot beat core count.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "campaign/campaign.h"
#include "campaign/campaign_config.h"
#include "common/bench_util.h"
#include "telemetry/report.h"

using namespace lumina;
using namespace lumina::bench;

namespace {

// 2 verbs x 2 message sizes x 3 connection counts x 2 repeats = 24 runs,
// plus 8 fuzz shards and 4 suite probes: 36 independent runs.
constexpr const char* kCampaignYaml = R"(campaign:
  name: scaling
  seed: 20230810
  runs:
    - kind: experiment
      name: sweep
      repeat: 2
      sweep:
        rdma-verb: [write, read]
        message-size: [10240, 30720]
        num-connections: [1, 2, 3]
      config:
        traffic:
          num-msgs-per-qp: 8
          mtu: 1024
          data-pkt-events:
          - {qpn: 1, psn: 3, type: drop, iter: 1}
    - kind: fuzz
      target: lossy-network
      nic: cx5
      shards: 8
      pool-size: 2
      max-iterations: 2
    - kind: suite
      nics: [e810]
      issues: [cnp-rate-limiting, counter-inconsistency, adaptive-retrans, interop-migreq]
)";

struct Sample {
  double wall_ms = 0;
  std::uint64_t digest = 0;
  CampaignReport report;
};

/// FNV-1a over every deterministic artifact byte the campaign produces:
/// the summary CSV plus each run's name, seed, summary line, and sim
/// metrics. Identical digests imply identical written artifact trees.
std::uint64_t digest_report(const CampaignReport& report) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const std::string& text) {
    for (const unsigned char c : text) {
      hash = (hash ^ c) * 0x100000001b3ULL;
    }
  };
  mix(campaign_summary_csv(report));
  for (const auto& run : report.runs) {
    mix(run.name);
    mix(run.summary);
    hash = fnv1a64(run.seed, hash);
    hash = fnv1a64(static_cast<std::uint64_t>(run.metrics.sim_duration), hash);
    hash = fnv1a64(run.metrics.sim_events, hash);
    if (run.result.has_value()) {
      hash = fnv1a64(run.result->trace.size(), hash);
      for (const auto& packet : run.result->trace) {
        for (const unsigned char byte : packet.pkt.bytes) {
          hash = (hash ^ byte) * 0x100000001b3ULL;
        }
      }
    }
  }
  return hash;
}

Sample run_at(const Campaign& campaign, int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seed = campaign.seed;
  const auto start = std::chrono::steady_clock::now();
  Sample sample;
  sample.report = run_campaign(campaign, options);
  const auto stop = std::chrono::steady_clock::now();
  sample.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  sample.digest = digest_report(sample.report);
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  // --out <path>: emit the campaign's telemetry report.json, the artifact
  // the CI bench gate diffs against bench/baselines/ci_baseline.json. The
  // deterministic section is a pure function of (campaign yaml, seed), so
  // baselines generated on any machine are comparable.
  std::string report_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      report_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out report.json]\n", argv[0]);
      return 2;
    }
  }

  heading("Campaign runner scaling: 36-run campaign, --jobs 1/2/4/8");

  const Campaign campaign = load_campaign(parse_yaml(kCampaignYaml));
  std::printf("runs: %zu   hardware threads: %u\n", campaign.runs.size(),
              std::thread::hardware_concurrency());

  // Warm-up run: fault in code pages and allocator arenas so the jobs=1
  // baseline is not unfairly slow.
  run_at(campaign, 1);

  const std::vector<int> job_counts = {1, 2, 4, 8};
  std::vector<Sample> samples;
  Table table({"jobs", "wall_ms", "speedup", "utilization", "digest"});
  for (const int jobs : job_counts) {
    samples.push_back(run_at(campaign, jobs));
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(samples.back().digest));
    telemetry::RunReport json = campaign_report_json(samples.back().report);
    table.add_row({std::to_string(jobs),
                   fmt("%.1f", samples.back().wall_ms),
                   fmt("%.2fx", samples[0].wall_ms / samples.back().wall_ms),
                   fmt("%.3f", json.wall["worker_utilization"]), digest});
  }
  table.print();

  ShapeCheck check;
  check.expect(campaign.runs.size() >= 32,
               "campaign has at least 32 independent runs");
  bool identical = true;
  for (const auto& sample : samples) {
    identical = identical && sample.digest == samples[0].digest;
  }
  check.expect(identical,
               "artifacts byte-identical across jobs=1/2/4/8 (equal digests)");

  if (!report_out.empty()) {
    // The wall section is machine-dependent and printed above; the report
    // keeps only the deterministic section, as write_campaign_artifacts does.
    telemetry::RunReport out = campaign_report_json(samples[0].report);
    out.wall.clear();
    std::string failed;
    if (!telemetry::write_report(out, report_out, &failed)) {
      std::fprintf(stderr, "error: failed to write %s\n", failed.c_str());
      return 2;
    }
    std::printf("\nreport written to %s\n", report_out.c_str());
  }

  const double speedup = samples[0].wall_ms / samples.back().wall_ms;
  if (std::thread::hardware_concurrency() >= 8) {
    check.expect(speedup >= 3.0,
                 "jobs=8 at least 3x faster than jobs=1 (" +
                     fmt("%.2f", speedup) + "x)");
  } else {
    std::printf(
        "\nnote: only %u hardware threads; speedup %.2fx reported but the "
        ">=3x gate needs 8 cores\n",
        std::thread::hardware_concurrency(), speedup);
  }
  return check.print_and_exit_code();
}
