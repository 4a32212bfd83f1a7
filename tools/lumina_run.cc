// lumina_run — the command-line front end, mirroring how the real tool is
// driven: a YAML test configuration in, a results directory out.
//
//   lumina_run <config.yaml> [results-dir] [--report f] [--trace-out f]
//   lumina_run --screen <cx4|cx5|cx6|e810> [--jobs N] [--report f]
//   lumina_run --campaign <campaign.yaml> [--jobs N] [--seed S] [--out dir]
//              [--report f]
//   lumina_run --fuzz-campaign <fuzz.yaml> [--jobs N] [--seed S] [--out dir]
//              [--report f] [--budget N] [--resume]
//   lumina_run --fuzz-target <name> [--nic t] [--seed S] [--steps N]
//
// The first form runs one configured experiment on the simulated testbed,
// prints a human-readable report (integrity, per-connection metrics,
// retransmission episodes, Go-Back-N compliance, counter consistency), and
// persists the Table 1 artifacts (trace.pcap, counters, flows.csv) when a
// results directory is given. --screen fans the Table 2 bug suite across
// worker threads; --campaign executes a whole run matrix (see
// docs/campaigns.md) with deterministic, jobs-independent artifacts.
// --fuzz-campaign runs a sharded Algorithm 1 hunt with corpus
// checkpointing (docs/fuzzing.md); --fuzz-target is the short-budget
// smoke form CI registers per target (ctest -R fuzz).
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "analyzers/cnp_analyzer.h"
#include "analyzers/counter_analyzer.h"
#include "analyzers/gbn_fsm.h"
#include "analyzers/retrans_perf.h"
#include "analyzers/trace_stats.h"
#include "campaign/campaign.h"
#include "campaign/campaign_config.h"
#include "fuzz/fuzz_campaign.h"
#include "fuzz/targets.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/results_io.h"
#include "suite/bug_detectors.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

using namespace lumina;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <config.yaml> [results-dir] [--report file] "
               "[--trace-out file]\n"
               "       %s --screen <cx4|cx5|cx6|e810> [--jobs N] "
               "[--report file]\n"
               "       %s --campaign <campaign.yaml> [--jobs N] [--seed S]\n"
               "                      [--out dir] [--report file]\n"
               "       %s --fuzz-campaign <fuzz.yaml> [--jobs N] [--seed S]\n"
               "                      [--out dir] [--report file] "
               "[--budget N] [--resume]\n"
               "       %s --fuzz-target <name> [--nic t] [--seed S] "
               "[--steps N]\n"
               "\n"
               "Runs a Lumina test described by a YAML configuration "
               "(Listing 1 + Listing 2 format)\n"
               "on the simulated testbed and prints the analysis report.\n"
               "--screen runs the full bug suite (Table 2 detectors) "
               "against one NIC model.\n"
               "--campaign runs a suite/fuzz/experiment matrix across "
               "--jobs worker threads;\n"
               "aggregated artifacts are byte-identical for any --jobs "
               "value (docs/campaigns.md).\n"
               "--fuzz-campaign runs a sharded genetic hunt with corpus "
               "checkpointing under\n"
               "--out/<corpus-dir> (docs/fuzzing.md); --fuzz-target runs a "
               "short smoke hunt of\n"
               "one named target (scenario, lossy-network, noisy-neighbor, "
               "crc-differential).\n"
               "--report writes the telemetry report.json and --trace-out "
               "the Chrome trace\n"
               "(chrome://tracing / Perfetto) to the given paths "
               "(docs/telemetry.md).\n"
               "--jobs is an integer >= 1, --steps and --budget integers "
               ">= 0, and --seed an\n"
               "unsigned 64-bit integer (decimal or 0x...).\n",
               argv0, argv0, argv0, argv0, argv0);
}

/// Parses all of `text` as an unsigned integer no greater than `max`.
/// Base 0 also accepts the 0x... spelling seeds are printed in. Signs,
/// whitespace, trailing characters and overflow are all rejected.
bool parse_uint(const char* text, int base, std::uint64_t max,
                std::uint64_t* value) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  *value = std::strtoull(text, &end, base);
  return *end == '\0' && errno != ERANGE && *value <= max;
}

/// Parses a decimal count flag (--jobs, --steps, --budget) that must be
/// at least `min`; prints a one-line error and returns false otherwise.
bool parse_count_flag(const char* flag, const char* text, int min,
                      int* value) {
  std::uint64_t parsed = 0;
  if (!parse_uint(text, 10, INT_MAX, &parsed) ||
      parsed < static_cast<std::uint64_t>(min)) {
    std::fprintf(stderr, "error: %s must be an integer >= %d, got '%s'\n",
                 flag, min, text);
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

bool parse_seed_flag(const char* text, std::uint64_t* seed) {
  if (!parse_uint(text, 0, UINT64_MAX, seed)) {
    std::fprintf(stderr,
                 "error: --seed must be an unsigned 64-bit integer, got "
                 "'%s'\n",
                 text);
    return false;
  }
  return true;
}

/// Writes `report` to `path`, logging the result. Returns false on I/O
/// failure so callers can turn it into a non-zero exit code.
bool emit_report(const telemetry::RunReport& report, const std::string& path) {
  std::string failed_path;
  if (!telemetry::write_report(report, path, &failed_path)) {
    std::fprintf(stderr, "error: failed to write %s\n", failed_path.c_str());
    return false;
  }
  std::printf("report written to %s\n", path.c_str());
  return true;
}

/// Parses the shared `--jobs N --seed S --out dir --report file` tail of
/// the multi-run modes. Returns false (after printing the error) on
/// malformed flags.
bool parse_campaign_flags(int argc, char** argv, int first,
                          CampaignOptions* options, std::string* out_dir,
                          std::string* report_path) {
  for (int i = first; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 < argc) return true;
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      return false;
    };
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (!need_value("--jobs")) return false;
      if (!parse_count_flag("--jobs", argv[++i], 1, &options->jobs)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!need_value("--seed")) return false;
      if (!parse_seed_flag(argv[++i], &options->seed)) return false;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (!need_value("--out")) return false;
      *out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      if (!need_value("--report")) return false;
      *report_path = argv[++i];
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

int run_screen(const char* nic_name, int argc, char** argv) {
  const auto nic = parse_nic_type(nic_name);
  if (!nic) {
    std::fprintf(stderr, "error: unknown NIC type '%s'\n", nic_name);
    return 1;
  }
  CampaignOptions options;
  std::string out_dir;
  std::string report_path;
  if (!parse_campaign_flags(argc, argv, 3, &options, &out_dir, &report_path)) {
    return 1;
  }
  std::printf("Screening %s against all known issues (Table 2, %d job%s):\n",
              DeviceProfile::get(*nic).name.c_str(), options.jobs,
              options.jobs == 1 ? "" : "s");
  int affected = 0;
  const auto results = run_bug_suite(*nic, options);
  for (const auto& result : results) {
    std::printf("  [%s] %-34s %s\n",
                result.affected ? "AFFECTED" : "clean   ",
                to_string(result.issue).c_str(), result.evidence.c_str());
    if (result.affected) ++affected;
  }
  std::printf("%d of %zu issues detected.\n", affected,
              all_known_issues().size());

  if (!report_path.empty()) {
    telemetry::RunReport report;
    report.name = "screen-" + std::string(nic_name);
    report.deterministic.counters["suite.issues_total"] = results.size();
    report.deterministic.counters["suite.issues_affected"] =
        static_cast<std::uint64_t>(affected);
    if (!emit_report(report, report_path)) return 1;
  }
  return 0;
}

int run_campaign_mode(int argc, char** argv) {
  if (argc < 3) {
    usage(argv[0]);
    return 1;
  }
  CampaignOptions options;
  std::string out_dir;
  std::string report_path;
  Campaign campaign;
  try {
    campaign = load_campaign_file(argv[2]);
  } catch (const YamlError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  options.seed = campaign.seed;  // the file's seed; --seed overrides
  if (!parse_campaign_flags(argc, argv, 3, &options, &out_dir, &report_path)) {
    return 1;
  }

  std::printf("== Campaign '%s': %zu runs, %d job%s, seed 0x%llx\n",
              campaign.name.c_str(), campaign.runs.size(), options.jobs,
              options.jobs == 1 ? "" : "s",
              static_cast<unsigned long long>(options.seed));

  CampaignReport report;
  try {
    report = run_campaign(campaign, options);
  } catch (const std::exception& error) {
    // e.g. a run whose config the orchestrator rejects.
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const CampaignRunOutcome& run = report.runs[i];
    std::printf("  [%3zu] %-44s %8.1f ms  %s\n", i, run.name.c_str(),
                run.metrics.wall_ms, run.summary.c_str());
  }
  std::printf("%zu/%zu runs ok, wall %.1f ms total\n", report.ok_count(),
              report.runs.size(), report.wall_ms);

  if (!out_dir.empty()) {
    std::string failed_path;
    if (!write_campaign_artifacts(report, out_dir, &failed_path)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   failed_path.c_str());
      return 1;
    }
    std::printf("artifacts written to %s/\n", out_dir.c_str());
  }
  if (!report_path.empty() &&
      !emit_report(campaign_report_json(report), report_path)) {
    return 1;
  }
  return report.ok_count() == report.runs.size() ? 0 : 2;
}

int run_fuzz_campaign_mode(int argc, char** argv) {
  if (argc < 3) {
    usage(argv[0]);
    return 1;
  }
  FuzzCampaignSpec spec;
  try {
    spec = load_fuzz_campaign_file(argv[2]);
  } catch (const YamlError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  CampaignOptions options;
  options.seed = spec.seed;  // the file's seed; --seed overrides
  std::string out_dir;
  std::string report_path;
  bool resume = false;
  for (int i = 3; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 < argc) return true;
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      return false;
    };
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (!need_value("--jobs")) return 1;
      if (!parse_count_flag("--jobs", argv[++i], 1, &options.jobs)) return 1;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!need_value("--seed")) return 1;
      if (!parse_seed_flag(argv[++i], &options.seed)) return 1;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (!need_value("--out")) return 1;
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      if (!need_value("--report")) return 1;
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      if (!need_value("--budget")) return 1;
      if (!parse_count_flag("--budget", argv[++i], 0, &spec.step_budget)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  if (resume && out_dir.empty()) {
    std::fprintf(stderr, "error: --resume needs --out (the corpus lives "
                         "under <out>/%s)\n",
                 spec.corpus_dir.c_str());
    return 1;
  }
  const std::string corpus_dir =
      out_dir.empty() ? std::string() : out_dir + "/" + spec.corpus_dir;

  std::printf("== Fuzz campaign '%s': target %s, %d shard%s, %d job%s, "
              "seed 0x%llx%s\n",
              spec.name.c_str(), spec.target.c_str(), spec.shards,
              spec.shards == 1 ? "" : "s", options.jobs,
              options.jobs == 1 ? "" : "s",
              static_cast<unsigned long long>(options.seed),
              resume ? " (resuming)" : "");

  std::vector<std::optional<FuzzCorpusState>> prior;
  if (resume) {
    try {
      prior = load_fuzz_corpora(corpus_dir, spec.shards);
    } catch (const YamlError& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
  }

  FuzzCampaignRunReport report;
  try {
    report = run_fuzz_campaign_spec(spec, options, prior);
  } catch (const YamlError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    const FuzzShardOutcome& shard = report.shards[i];
    std::printf("  [%3zu] steps %3d/%d  pool %3zu  %s%s\n", i,
                shard.state.steps_done,
                spec.fuzzer.pool_size + spec.fuzzer.max_iterations,
                shard.state.pool.size(),
                shard.state.anomaly.has_value() ? "ANOMALY"
                : shard.state.done              ? "exhausted"
                                                : "paused",
                shard.resumed ? " (resumed)" : "");
  }
  std::printf("%d total steps across %zu shards; %s\n", report.total_steps(),
              report.shards.size(),
              report.anomaly_shard >= 0
                  ? ("first anomaly in shard " +
                     std::to_string(report.anomaly_shard))
                        .c_str()
                  : report.all_done() ? "no anomaly found"
                                      : "hunt paused (resume with --resume)");

  if (!corpus_dir.empty()) {
    std::string failed_path;
    if (!write_fuzz_corpora(report, corpus_dir, &failed_path)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   failed_path.c_str());
      return 1;
    }
    std::printf("corpus checkpoints written to %s/\n", corpus_dir.c_str());
  }
  if (!report_path.empty() &&
      !emit_report(fuzz_campaign_report_json(report), report_path)) {
    return 1;
  }
  return 0;
}

int run_fuzz_target_mode(int argc, char** argv) {
  if (argc < 3) {
    usage(argv[0]);
    return 1;
  }
  const std::string name = argv[2];
  NicType nic = NicType::kCx5;
  GeneticFuzzer::Options options;
  options.pool_size = 2;
  options.max_iterations = 3;
  options.seed = 0xF0CCAC1Au;
  for (int i = 3; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 < argc) return true;
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      return false;
    };
    if (std::strcmp(argv[i], "--nic") == 0) {
      if (!need_value("--nic")) return 1;
      const auto parsed = parse_nic_type(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "error: unknown NIC type '%s'\n", argv[i]);
        return 1;
      }
      nic = *parsed;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!need_value("--seed")) return 1;
      if (!parse_seed_flag(argv[++i], &options.seed)) return 1;
    } else if (std::strcmp(argv[i], "--steps") == 0) {
      if (!need_value("--steps")) return 1;
      if (!parse_count_flag("--steps", argv[++i], 0,
                            &options.max_iterations)) {
        return 1;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  auto target = make_fuzz_target(name, nic);
  if (!target) {
    std::fprintf(stderr, "error: unknown fuzz target '%s'\n", name.c_str());
    return 1;
  }
  std::printf("== Fuzz smoke: target %s, pool %d + %d iterations, seed "
              "0x%llx\n",
              name.c_str(), options.pool_size, options.max_iterations,
              static_cast<unsigned long long>(options.seed));
  GeneticFuzzer fuzzer(std::move(*target), options);
  const FuzzOutcome outcome = fuzzer.run();
  std::printf("%d iterations, pool %zu, %s\n", outcome.iterations,
              fuzzer.state().pool.size(),
              outcome.anomaly.has_value() ? "anomaly found"
                                          : "no anomaly");
  // Differential targets must run clean — a divergence is a regression in
  // the fast paths, not a fuzzing success.
  if (name == "crc-differential" && outcome.anomaly.has_value()) return 2;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    usage(argv[0]);
    return argc < 2 ? 1 : 0;
  }
  if (std::strcmp(argv[1], "--screen") == 0) {
    if (argc < 3) {
      usage(argv[0]);
      return 1;
    }
    return run_screen(argv[2], argc, argv);
  }
  if (std::strcmp(argv[1], "--campaign") == 0) {
    return run_campaign_mode(argc, argv);
  }
  if (std::strcmp(argv[1], "--fuzz-campaign") == 0) {
    return run_fuzz_campaign_mode(argc, argv);
  }
  if (std::strcmp(argv[1], "--fuzz-target") == 0) {
    return run_fuzz_target_mode(argc, argv);
  }
  if (argv[1][0] == '-') {
    // A flag in mode position (e.g. "--seed 7 --campaign f.yaml"): the
    // mode selector must come first, so point at the usage instead of
    // trying to open "--seed" as a config file.
    std::fprintf(stderr, "error: unknown mode '%s'\n\n", argv[1]);
    usage(argv[0]);
    return 1;
  }

  // Single-run mode: one optional positional results-dir plus the
  // telemetry output flags.
  std::string results_dir;
  std::string report_path;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 < argc) return true;
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      return false;
    };
    if (std::strcmp(argv[i], "--report") == 0) {
      if (!need_value("--report")) return 1;
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (!need_value("--trace-out")) return 1;
      trace_path = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 1;
    } else if (results_dir.empty()) {
      results_dir = argv[i];
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[i]);
      return 1;
    }
  }

  TestConfig cfg;
  try {
    cfg = load_test_config(parse_yaml_file(argv[1]));
    cfg.normalize();  // names/IPs/connections resolved for printing below
  } catch (const YamlError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  std::printf("== Lumina test: %d %s connection(s), %d x %llu B messages\n",
              cfg.traffic.num_connections, to_string(cfg.traffic.verb).c_str(),
              cfg.traffic.num_msgs_per_qp,
              static_cast<unsigned long long>(cfg.traffic.message_size));
  for (std::size_t h = 0; h < cfg.hosts.size(); ++h) {
    std::printf("   %s NIC: %s\n", cfg.hosts[h].name.c_str(),
                DeviceProfile::get(cfg.hosts[h].nic_type).name.c_str());
  }
  std::printf("   injected events: %zu\n", cfg.traffic.data_pkt_events.size());

  Orchestrator orch(cfg);
  const TestResult* run_result = nullptr;
  try {
    run_result = &orch.run();
  } catch (const std::exception& error) {
    // Backstop for a config that loaded but cannot run (YamlError
    // included): a typed error and exit 1, never an abort.
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  const TestResult& result = *run_result;

  std::printf("\n== Integrity check (Section 3.5)\n   %s\n",
              result.integrity.to_string().c_str());
  if (!result.integrity.ok()) {
    std::printf("   trace incomplete: results are NOT analyzable\n");
  }
  if (!result.finished) {
    std::printf("   WARNING: traffic did not finish before the deadline\n");
  }

  std::printf("\n== Trace statistics\n%s",
              compute_trace_stats(result.trace).to_string().c_str());

  std::printf("\n== Application metrics\n");
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    const FlowMetrics& flow = result.flows[i];
    std::printf("   conn %zu: %zu/%d msgs, avg MCT %.2f us, goodput "
                "%.2f Gbps%s\n",
                i + 1, flow.completed(), cfg.traffic.num_msgs_per_qp,
                flow.avg_mct_us(), flow.goodput_gbps(),
                flow.aborted ? " [ABORTED]" : "");
  }

  const auto episodes = analyze_retransmissions(result.trace,
                                                cfg.traffic.verb);
  std::printf("\n== Retransmission episodes: %zu\n", episodes.size());
  for (const auto& ep : episodes) {
    std::printf("   PSN %u iter %u: %s", ep.psn, ep.iter,
                ep.timeout_recovery ? "timeout recovery" : "NACK recovery");
    if (const auto gen = ep.nack_generation_latency()) {
      std::printf(", NACK gen %s", format_duration(*gen).c_str());
    }
    if (const auto react = ep.nack_reaction_latency()) {
      std::printf(", NACK react %s", format_duration(*react).c_str());
    }
    if (const auto total = ep.total_latency()) {
      std::printf(", total %s", format_duration(*total).c_str());
    }
    std::printf("\n");
  }

  const auto gbn = check_gbn_compliance(result.trace, cfg.traffic.verb);
  std::printf("\n== Go-Back-N specification check: %s (%zu flows, %zu "
              "episodes)\n",
              gbn.compliant() ? "PASS" : "FAIL", gbn.flows_checked,
              gbn.episodes_seen);
  for (const auto& v : gbn.violations) {
    std::printf("   [%s] %s (mirror seq %llu)\n", v.rule.c_str(),
                v.description.c_str(),
                static_cast<unsigned long long>(v.mirror_seq));
  }

  const auto cnps = analyze_cnps(result.trace);
  if (cnps.ecn_marked_data_packets > 0 || !cnps.cnps.empty()) {
    std::printf("\n== Congestion notification\n");
    std::printf("   ECN-marked data packets: %llu, CNPs: %zu\n",
                static_cast<unsigned long long>(cnps.ecn_marked_data_packets),
                cnps.cnps.size());
    if (const auto gap = cnps.min_interval_global()) {
      std::printf("   min inter-CNP gap: %s\n",
                  format_duration(*gap).c_str());
    }
  }

  // Re-key per-host counters into the two flow roles; for the classic
  // two-host pair this reduces exactly to the old requester/responder check.
  std::vector<HostCountersView> host_views(result.host_counters.size());
  std::vector<std::pair<int, int>> connection_hosts;
  for (std::size_t h = 0; h < host_views.size(); ++h) {
    host_views[h].counters = result.host_counters[h];
  }
  for (const auto& c : result.connections) {
    connection_hosts.emplace_back(c.src_host, c.dst_host);
    const auto add_ip = [&](int host, Ipv4Address ip) {
      if (host < 0 || static_cast<std::size_t>(host) >= host_views.size()) {
        return;
      }
      auto& ips = host_views[host].ips;
      if (std::find(ips.begin(), ips.end(), ip) == ips.end()) {
        ips.push_back(ip);
      }
    };
    add_ip(c.src_host, c.requester.ip);
    add_ip(c.dst_host, c.responder.ip);
  }
  const auto counters = check_counters_hosts(result.trace, cfg.traffic.verb,
                                             host_views, connection_hosts);
  std::printf("\n== Counter consistency: %s\n",
              counters.consistent() ? "OK" : "INCONSISTENT");
  for (const auto& inc : counters.inconsistencies) {
    std::printf("   %s (%s): reported %llu, expected >= %llu — %s\n",
                inc.counter.c_str(), inc.nic.c_str(),
                static_cast<unsigned long long>(inc.reported),
                static_cast<unsigned long long>(inc.expected_at_least),
                inc.note.c_str());
  }

  if (!results_dir.empty()) {
    std::string failed_path;
    if (write_results(result, results_dir, &failed_path)) {
      std::printf("\nresults written to %s/\n", results_dir.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write %s\n", failed_path.c_str());
      return 1;
    }
  }
  if (!report_path.empty()) {
    telemetry::RunReport report;
    report.name = std::filesystem::path(argv[1]).stem().string();
    report.deterministic = result.telemetry;
    if (!emit_report(report, report_path)) return 1;
  }
  if (!trace_path.empty()) {
    if (!orch.trace_sink()->write_chrome_json(trace_path)) {
      std::fprintf(stderr, "error: failed to write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s (chrome://tracing, Perfetto)\n",
                trace_path.c_str());
  }
  return result.integrity.ok() && gbn.compliant() ? 0 : 2;
}
