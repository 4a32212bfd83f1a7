// campaign: a seeded mixed campaign, built as YAML text and run through
// load_campaign and run_campaign at --jobs 1. This is the many-short-runs
// regime of sweeps and fuzz hunts, where per-run fixed cost (testbed
// construction) is a large share of each run, and the only workload that
// runs src/fuzz and the stateful fault models.
//
//   - experiment sweep: two hosts, 4 NICs x {write, read, send} x 2 message
//     sizes x {1, 4} connections, with one drop and one ECN mark at PSNs
//     drawn from the benchmark seed;
//   - fuzz: `scenario` shards, a 4-host incast mutated over the full fault
//     vocabulary.
//
// The campaign's own seed, which seeds every run (and so the fuzz shards'
// mutations), is a constant: it keeps the amount of work per pass the same
// for every benchmark seed, while the seed moves the injected faults.
#include <algorithm>
#include <cstring>
#include <string>
#include <thread>

#include "campaign/campaign.h"
#include "campaign/campaign_config.h"
#include "config/yaml_lite.h"
#include "fuzz/targets.h"
#include "orchestrator_probe.h"
#include "telemetry/report.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lumina::CampaignRunKind;

constexpr const char* kCampaignSeed = "20230910";

std::string campaign_yaml(std::uint64_t seed) {
  SeedStream rng(seed);
  std::string yaml = std::string("campaign:\n  name: perfbench-mixed\n") +
                     "  seed: " + kCampaignSeed + "\n  runs:\n";
  for (const char* nic : {"cx4", "cx5", "cx6", "e810"}) {
    // Every connection carries at least 2 x 4 KiB = 8 data packets, so
    // PSNs in [2, 8] always exist; the ECN mark skips the drop's PSN.
    const std::uint64_t drop = rng.next_in(2, 8);
    std::uint64_t ecn = rng.next_in(2, 7);
    if (ecn >= drop) ++ecn;
    yaml += std::string("    - kind: experiment\n") +
            "      name: sweep-" + nic + "\n" +
            "      sweep:\n"
            "        rdma-verb: [write, read, send]\n"
            "        message-size: [4096, 10240]\n"
            "        num-connections: [1, 4]\n"
            "      config:\n"
            "        requester:\n"
            "          nic:\n"
            "            type: " + nic + "\n" +
            "        responder:\n"
            "          nic:\n"
            "            type: " + nic + "\n" +
            "        traffic:\n"
            "          num-msgs-per-qp: 2\n"
            "          mtu: 1024\n"
            "          data-pkt-events:\n"
            "          - {qpn: 1, psn: " + std::to_string(drop) +
            ", type: drop, iter: 1}\n"
            "          - {qpn: 1, psn: " + std::to_string(ecn) +
            ", type: ecn, iter: 1}\n";
  }
  yaml +=
      "    - kind: fuzz\n"
      "      target: scenario\n"
      "      nic: cx6\n"
      "      shards: 4\n"
      "      pool-size: 2\n"
      "      max-iterations: 2\n";
  return yaml;
}

std::uint64_t digest_fuzz(const lumina::FuzzOutcome& fuzz) {
  Digest digest;
  digest.u64(static_cast<std::uint64_t>(fuzz.iterations));
  digest.u64(fuzz.anomaly.has_value());
  for (const auto& it : fuzz.history) {
    std::uint64_t score_bits = 0;
    std::memcpy(&score_bits, &it.score, sizeof score_bits);
    digest.u64(score_bits);
    digest.u64(it.anomaly);
    digest.text(lumina::serialize_test_config(it.config));
  }
  return digest.value();
}

RunSample sample_of(const lumina::CampaignRunOutcome& run) {
  RunSample sample;
  sample.name = run.name;
  sample.wall_ms = run.metrics.wall_ms;
  sample.ok = run.ok;
  if (run.result.has_value()) {
    sample.digest = digest_result(*run.result);
  } else if (run.fuzz.has_value()) {
    sample.digest = digest_fuzz(*run.fuzz);
    sample.ok = sample.ok && !run.fuzz->anomaly.has_value();
  }
  if (!sample.ok) sample.failure = run.summary;
  return sample;
}

class CampaignWorkload final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    yaml_ = campaign_yaml(seed);
    campaign_ = lumina::load_campaign(lumina::parse_yaml(yaml_));
  }

  PassResult pass() override {
    const auto start = Clock::now();
    const lumina::CampaignReport report =
        lumina::run_campaign(campaign_, options(1));
    PassResult out;
    out.wall_ms = ms_between(start, Clock::now());
    for (const auto& run : report.runs) out.runs.push_back(sample_of(run));
    return out;
  }

  PassResult traced_pass(Tracer& tracer) override {
    const auto load_start = Clock::now();
    const lumina::Campaign campaign =
        lumina::load_campaign(lumina::parse_yaml(yaml_));
    tracer.span("config.load_ms", load_start, Clock::now());

    // The campaign layer's own costs, on the user-facing path.
    const auto run_start = Clock::now();
    const lumina::CampaignReport report =
        lumina::run_campaign(campaign, options(1));
    const auto run_end = Clock::now();
    tracer.span("campaign.run_ms", run_start, run_end);
    double experiment_ms = 0;
    double fuzz_ms = 0;
    for (const auto& run : report.runs) {
      (run.kind == CampaignRunKind::kFuzz ? fuzz_ms : experiment_ms) +=
          run.metrics.wall_ms;
    }
    tracer.count("campaign.experiment_run_ms", experiment_ms);
    tracer.count("campaign.fuzz_run_ms", fuzz_ms);
    tracer.count("campaign.overhead_ms",
                 ms_between(run_start, run_end) - experiment_ms - fuzz_ms);
    const auto aggregate_start = Clock::now();
    const std::string csv = lumina::campaign_summary_csv(report);
    const std::string json =
        lumina::telemetry::serialize_report(lumina::campaign_report_json(report));
    tracer.span("campaign.aggregate_ms", aggregate_start, Clock::now());
    keep(csv.size() + json.size());

    // Replay every run exactly as execute_run does, with the phase split.
    PassResult out;
    const lumina::CampaignOptions opts = options(1);
    for (std::size_t i = 0; i < campaign.runs.size(); ++i) {
      const lumina::CampaignRunSpec& spec = campaign.runs[i];
      const std::uint64_t seed = lumina::derive_run_seed(opts.seed, i);
      RunSample sample;
      sample.name = spec.name;
      if (spec.kind == CampaignRunKind::kExperiment) {
        lumina::Orchestrator::Options orch_options;
        orch_options.seed = seed;
        orch_options.shards = opts.shards;
        sample.wall_ms = traced_orchestrator_run(
            spec.config, orch_options, tracer,
            [&sample](lumina::Orchestrator& orch) {
              const lumina::TestResult& result = orch.result();
              sample.ok = result.integrity.ok() && result.finished;
              if (!sample.ok) sample.failure = result.integrity.to_string();
              sample.digest = digest_result(result);
            });
      } else if (auto target = lumina::make_fuzz_target(spec.fuzz_target,
                                                         spec.nic);
                 spec.kind == CampaignRunKind::kFuzz && target) {
        lumina::GeneticFuzzer::Options fuzz_options = spec.fuzz_options;
        fuzz_options.seed = seed;
        const auto start = Clock::now();
        const lumina::FuzzOutcome fuzz =
            lumina::GeneticFuzzer(std::move(*target), fuzz_options).run();
        const auto end = Clock::now();
        tracer.span("fuzz.run_ms", start, end);
        tracer.count("fuzz.steps", static_cast<double>(fuzz.history.size()));
        sample.wall_ms = ms_between(start, end);
        sample.ok = !fuzz.anomaly.has_value();
        if (!sample.ok) sample.failure = "fuzz anomaly";
        sample.digest = digest_fuzz(fuzz);
      } else {
        sample.ok = false;
        sample.failure = "unexpected run kind";
      }
      out.wall_ms += sample.wall_ms;
      out.runs.push_back(std::move(sample));
    }
    return out;
  }

  Tracer::Totals traced_extras() override {
    // Informational: a host that runs threads in parallel shows it here.
    const int jobs =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const auto timed = [this](int n) {
      const auto start = Clock::now();
      lumina::run_campaign(campaign_, options(n));
      return ms_between(start, Clock::now());
    };
    const double serial_ms = timed(1);
    const double parallel_ms = timed(jobs);
    return {{"campaign.parallel_speedup", serial_ms / parallel_ms}};
  }

 private:
  lumina::CampaignOptions options(int jobs) const {
    lumina::CampaignOptions opts;
    opts.jobs = jobs;
    opts.seed = campaign_.seed;
    return opts;
  }

  std::string yaml_;
  lumina::Campaign campaign_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const WorkloadOptions&) {
  return std::make_unique<CampaignWorkload>();
}

}  // namespace perfbench
