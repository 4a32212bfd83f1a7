// lumina_perfbench — the Lumina-Sim benchmark program.
//
//   lumina_perfbench --workload <table2|campaign|incast64> --seed <n>
//                    --seconds <s> --trace <0|1> [--spans-out <file>]
//                    [--expect-wrong-verdict]
//
// Sets the workload up seven times and reports the median set-up time,
// then runs passes until --seconds have elapsed, always finishing the pass
// it is in. Every run's outputs are checked (see README.md); a
// failed check counts against `failed`. --trace 0 reports the end-to-end
// metrics from untraced passes. --trace 1 interleaves untraced and traced
// passes and reports the per-layer metrics of the traced ones, the medians
// over passes. The last line of stdout is one JSON object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "suite/bug_detectors.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per invocation; `setup_s` is their median.
constexpr int kSetups = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  WorkloadOptions options;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--expect-wrong-verdict") {
      args->options.expect_wrong_verdict = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds >= 0;
}

/// The correctness gate: every run must pass its own check, and its digest
/// must equal that of the same run in the first pass (so across passes of
/// one seed, across set-ups, and between traced and untraced passes).
class Gate {
 public:
  void check(const PassResult& pass) {
    if (reference_.empty()) {
      for (const auto& run : pass.runs) reference_.push_back(run.digest);
    }
    if (pass.runs.size() != reference_.size()) {
      note("pass has " + std::to_string(pass.runs.size()) + " runs, expected " +
           std::to_string(reference_.size()));
    }
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      const RunSample& run = pass.runs[i];
      ++attempted_;
      if (!run.ok) {
        ++failed_;
        note(run.name + ": " + run.failure);
      } else if (i >= reference_.size() || run.digest != reference_[i]) {
        ++failed_;
        note(run.name + ": outputs differ from the first pass");
      }
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return notes_ == 0; }

 private:
  /// Reports the first few failures on stderr.
  void note(const std::string& message) {
    if (notes_++ < 5) {
      std::fprintf(stderr, "check failed: %s\n", message.c_str());
    }
  }

  std::vector<std::uint64_t> reference_;
  std::uint64_t notes_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool exercised = true;  ///< False for a per-layer metric reported as 0.
};

/// A per-layer metric and the workloads that exercise it, on which it is
/// measured and must not read 0.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::vector<std::string> workloads;
};

/// Every per-layer metric, in BENCHMARK.json order. Every traced result
/// names all of them; on a workload that does not exercise a metric it
/// reads 0 and is marked "(not exercised)" on its human-readable line.
std::vector<LayerMetric> layer_metrics_table() {
  const std::vector<std::string> both = {"campaign", "incast64"};
  const std::vector<std::string> campaign = {"campaign"};
  const std::vector<std::string> incast = {"incast64"};
  std::vector<LayerMetric> table = {
      {"orchestrator.build_ms", "ms", both},
      {"orchestrator.build_ms_per_host", "ms", both},
      {"orchestrator.prepare_ms", "ms", both},
      {"sim.run_ms", "ms", both},
      {"sim.ns_per_event", "ns", both},
      {"sim.events", "count", both},
      {"sim.events_cancelled", "count", both},
      {"sim.queue_depth_max", "count", both},
      {"sim.events_per_frame", "events/frame", both},
      {"orchestrator.collect_ms", "ms", both},
      {"orchestrator.collect_ns_per_frame", "ns", both},
      {"trace.packets", "count", both},
  };
  for (const lumina::KnownIssue issue : lumina::all_known_issues()) {
    table.push_back(
        {"suite." + lumina::issue_slug(issue) + "_ms", "ms", {"table2"}});
  }
  const std::vector<LayerMetric> rest = {
      {"analyzers.retrans_ms", "ms", incast},
      {"analyzers.gbn_ms", "ms", incast},
      {"analyzers.cnp_ms", "ms", incast},
      {"analyzers.counters_ms", "ms", incast},
      {"telemetry.serialize_ms", "ms", incast},
      {"campaign.experiment_run_ms", "ms", campaign},
      {"campaign.fuzz_run_ms", "ms", campaign},
      {"campaign.aggregate_ms", "ms", campaign},
      {"campaign.overhead_ms", "ms", campaign},
      {"fuzz.steps", "count", campaign},
      {"fuzz.step_ms", "ms", campaign},
      {"config.load_ms", "ms", both},
      {"injector.roce_rx", "count", both},
      {"injector.mirrored", "count", both},
      {"injector.ecn_marked_by_queue", "count", incast},
      {"injector.dropped_by_event", "count", both},
      {"injector.port_drops", "count", incast},
      {"dumper.received", "count", both},
      {"dumper.capture_ratio", "ratio", both},
      {"rnic.tx_packets", "count", both},
      {"rnic.retransmitted_packets", "count", both},
      {"rnic.np_cnp_sent", "count", both},
      {"rnic.retransmit_ratio", "ratio", both},
      {"trace.overhead_ratio", "ratio", {"table2", "campaign", "incast64"}},
      {"campaign.parallel_speedup", "ratio", campaign},
  };
  table.insert(table.end(), rest.begin(), rest.end());
  return table;
}

/// Turns one traced pass's span and count totals into per-layer metrics.
Tracer::Totals layer_metrics(const Tracer::Totals& totals) {
  const auto get = [&totals](const std::string& key) {
    const auto it = totals.find(key);
    return it == totals.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  // Span and count totals are named as their metrics; only ratios remain.
  Tracer::Totals m = totals;
  m["orchestrator.build_ms_per_host"] =
      ratio(get("orchestrator.build_ms"), get("orchestrator.hosts"));
  m["sim.ns_per_event"] = ratio(get("sim.run_ms") * 1e6, get("sim.events"));
  m["sim.events_per_frame"] = ratio(get("sim.events"), get("trace.packets"));
  m["orchestrator.collect_ns_per_frame"] =
      ratio(get("orchestrator.collect_ms") * 1e6, get("trace.packets"));
  m["fuzz.step_ms"] = ratio(get("campaign.fuzz_run_ms"), get("fuzz.steps"));
  m["dumper.capture_ratio"] =
      ratio(get("dumper.captured"), get("dumper.received"));
  m["rnic.retransmit_ratio"] =
      ratio(get("rnic.retransmitted_packets"), get("rnic.tx_packets"));
  return m;
}

/// Medians over the traced passes; `extras` holds the values measured once
/// per invocation instead.
std::vector<Metric> per_layer(const std::string& workload,
                              const Tracer& tracer,
                              const Tracer::Totals& extras) {
  std::vector<Tracer::Totals> passes;
  for (const auto& totals : tracer.passes()) {
    passes.push_back(layer_metrics(totals));
  }
  std::vector<Metric> out;
  for (const auto& [name, unit, workloads] : layer_metrics_table()) {
    double value = 0;
    if (std::find(workloads.begin(), workloads.end(), workload) ==
        workloads.end()) {
      out.push_back(Metric{name, 0, unit, false});
      continue;
    }
    if (const auto it = extras.find(name); it != extras.end()) {
      value = it->second;
    } else {
      std::vector<double> values;
      for (const auto& m : passes) {
        const auto found = m.find(name);
        values.push_back(found == m.end() ? 0.0 : found->second);
      }
      value = median(std::move(values));
    }
    out.push_back(Metric{name, value, unit});
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += gate.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted());
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Args& args) {
  std::function<std::unique_ptr<Workload>(const WorkloadOptions&)> make;
  if (args.workload == "table2") {
    make = make_table2;
  } else if (args.workload == "campaign") {
    make = make_campaign;
  } else if (args.workload == "incast64") {
    make = make_incast64;
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("machine %s\n", machine_fingerprint().c_str());

  // Host-speed scale of the work between two probe readings.
  HostProbe probe;
  const auto scale = [](double probe_before, double probe_after) {
    return HostProbe::kNominalMs / (0.5 * (probe_before + probe_after));
  };

  // Set-up: generate and parse the configs, then one warm-up pass;
  // repeated so its median is steady.
  Gate gate;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    const double probe_before = probe.measure_ms();
    const auto start = Clock::now();
    auto fresh = make(args.options);
    fresh->prepare(args.seed);
    const PassResult warm_up = fresh->pass();
    const double seconds = ms_between(start, Clock::now()) / 1e3;
    setup_s.push_back(seconds * scale(probe_before, probe.measure_ms()));
    gate.check(warm_up);
    workload = std::move(fresh);
  }

  // `run_ms_p50` is the median of per-pass medians. On `table2` a pass's
  // 24 probes fall into 12 short and 12 long ones, so each pass's median
  // is the midpoint of two specific probes (the slowest short one and the
  // fastest long one), not a time any probe takes; it is only steadier
  // than the pooled median, which rests on the extremes of both clusters.
  std::vector<double> run_ms;
  std::vector<double> pass_medians;
  std::vector<double> pass_rates;
  std::vector<double> raw_pass_rates;
  std::vector<double> probe_ms;
  std::vector<double> untraced_pass_ms;
  std::vector<double> traced_pass_ms;
  Tracer tracer;
  const auto start = Clock::now();
  double probe_before = probe.measure_ms();
  do {
    const PassResult pass = workload->pass();
    const double probe_after = probe.measure_ms();
    const double host = scale(probe_before, probe_after);
    probe_ms.push_back(probe_after);
    gate.check(pass);
    untraced_pass_ms.push_back(pass.wall_ms);
    const double runs = static_cast<double>(pass.runs.size());
    raw_pass_rates.push_back(runs * 1e3 / pass.wall_ms);
    pass_rates.push_back(runs * 1e3 / (pass.wall_ms * host));
    std::vector<double> pass_run_ms;
    for (const auto& r : pass.runs) pass_run_ms.push_back(r.wall_ms * host);
    run_ms.insert(run_ms.end(), pass_run_ms.begin(), pass_run_ms.end());
    pass_medians.push_back(median(std::move(pass_run_ms)));
    probe_before = probe_after;
    if (args.trace) {
      tracer.begin_pass();
      const PassResult traced = workload->traced_pass(tracer);
      gate.check(traced);
      traced_pass_ms.push_back(traced.wall_ms);
      probe_before = probe.measure_ms();
    }
  } while (ms_between(start, Clock::now()) < args.seconds * 1e3);

  const Tail tail = tail_of(run_ms);
  const std::vector<Metric> end_to_end = {
      {"runs_per_s", median(pass_rates), "runs/s"},
      {"run_ms_p50", median(pass_medians), "ms"},
      {"run_ms_tail", tail.value, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  for (const Metric& m : end_to_end) {
    std::printf("%-12s %12.4f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.name == "runs_per_s") {
      std::printf("  (median of %zu passes)", pass_rates.size());
    } else if (m.name == "run_ms_tail") {
      std::printf("  (median over %zu chunks of p90 of %zu runs)",
                  tail.chunks, tail.chunk);
    } else if (m.name == "setup_s") {
      std::printf("  (median of %zu set-ups)", setup_s.size());
    }
    std::printf("\n");
  }
  std::printf("unscaled     runs_per_s=%.4f; host probe median %.3f ms "
              "(nominal %.1f)\n",
              median(raw_pass_rates), median(probe_ms), HostProbe::kNominalMs);
  const double fail_ratio =
      static_cast<double>(gate.failed()) /
      static_cast<double>(std::max<std::uint64_t>(gate.attempted(), 1));
  std::printf("%-12s %12.4f ratio  (%llu of %llu runs failed)\n", "fail_ratio",
              fail_ratio, static_cast<unsigned long long>(gate.failed()),
              static_cast<unsigned long long>(gate.attempted()));

  if (!args.trace) {
    print_result(gate, end_to_end);
  } else {
    Tracer::Totals extras = workload->traced_extras();
    extras["trace.overhead_ratio"] =
        median(traced_pass_ms) / median(untraced_pass_ms);
    const std::vector<Metric> layers = per_layer(args.workload, tracer, extras);
    for (const Metric& m : layers) {
      std::printf("  %-38s %14.4f %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.exercised ? "" : "  (not exercised)");
    }
    if (!args.spans_out.empty() &&
        !tracer.write_chrome_json(args.spans_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   args.spans_out.c_str());
    }
    print_result(gate, layers);
  }
  return gate.correct() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <table2|campaign|incast64> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out file] "
                 "[--expect-wrong-verdict]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
