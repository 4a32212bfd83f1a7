// Incast scaling on the generalized testbed (docs/topology.md): k-1
// senders write into one shared sink for k = 2/4/8 hosts around the
// event-injector switch, with RED-style ECN marking at the bottleneck
// egress queue (§6.3 closed loop).
//
// Shape checks: every fan-in completes and reconstructs an analyzable
// trace; congestion feedback (CE marks -> CNPs) appears once the fan-in
// exceeds 1:1 and grows with it; CNP pacing respects the device's minimum
// CNP interval at every scale.
//
// A 16-host incast then runs end to end (wall clock best of 3) and must
// finish with intact integrity; its wire counters join the baseline.
//
// --out <path> emits a run report whose deterministic counters are a pure
// function of the config — the CI bench gate diffs it against
// bench/baselines/incast_baseline.json. Wall clock is printed only, so the
// report's "wall" section stays empty.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analyzers/cnp_analyzer.h"
#include "common/bench_util.h"
#include "config/test_config.h"
#include "orchestrator/orchestrator.h"
#include "rnic/device_profile.h"
#include "telemetry/report.h"
#include "util/time.h"

using namespace lumina;
using namespace lumina::bench;

namespace {

TestConfig incast_config(int hosts) {
  TestConfig cfg;
  cfg.hosts.clear();
  for (int i = 0; i < hosts; ++i) {
    HostConfig host;
    host.nic_type = NicType::kCx6Dx;
    cfg.hosts.push_back(host);
  }
  for (int i = 0; i + 1 < hosts; ++i) {
    cfg.connections.push_back(ConnectionSpec{i, hosts - 1});
  }
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.message_size = 32 * 1024;
  cfg.traffic.mtu = 1024;
  return cfg;
}

struct Sample {
  int hosts = 0;
  bool finished = false;
  bool integrity_ok = false;
  std::size_t trace_packets = 0;
  std::uint64_t ecn_marked = 0;
  std::size_t cnps = 0;
  Tick min_cnp_gap = 0;  ///< 0 when fewer than two CNPs.
  double fct_us = 0;     ///< Mean flow completion time.
};

Sample run_incast(int hosts) {
  Orchestrator::Options options;
  options.switch_options.ecn_marking_threshold_bytes = 30 * 1024;
  Orchestrator orch(incast_config(hosts), options);
  const TestResult& result = orch.run();

  Sample sample;
  sample.hosts = hosts;
  sample.finished = result.finished;
  sample.integrity_ok = result.integrity.ok();
  sample.trace_packets = result.trace.size();
  sample.ecn_marked = result.switch_counters.ecn_marked_by_queue;
  const Ipv4Address sink_ip = result.connections[0].responder.ip;
  const CnpReport cnps = analyze_cnps(result.trace, {sink_ip});
  sample.cnps = cnps.cnps.size();
  sample.min_cnp_gap = cnps.min_interval_global().value_or(0);
  double fct = 0;
  for (const auto& flow : result.flows) fct += flow.avg_mct_us();
  sample.fct_us = fct / static_cast<double>(result.flows.size());
  return sample;
}

/// The full 16-host testbed, wall clock best of kIncast16Repeats.
struct Incast16Sample {
  bool ok = false;  ///< finished with intact integrity.
  std::size_t trace_packets = 0;
  std::uint64_t ce_marks = 0;
  std::uint64_t roce_rx = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
};

constexpr int kIncast16Hosts = 16;
constexpr int kIncast16Repeats = 3;

Incast16Sample run_incast16() {
  Incast16Sample s;
  s.wall_ms = 1e30;
  for (int rep = 0; rep < kIncast16Repeats; ++rep) {
    Orchestrator::Options options;
    options.switch_options.ecn_marking_threshold_bytes = 30 * 1024;
    Orchestrator orch(incast_config(kIncast16Hosts), options);
    const auto start = std::chrono::steady_clock::now();
    const TestResult& result = orch.run();
    s.wall_ms = std::min(
        s.wall_ms, std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    s.ok = result.finished && result.integrity.ok();
    s.trace_packets = result.trace.size();
    s.ce_marks = result.switch_counters.ecn_marked_by_queue;
    s.roce_rx = result.switch_counters.roce_rx;
    s.events = orch.events_processed();
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      report_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out report.json]\n", argv[0]);
      return 2;
    }
  }

  heading("Incast scaling: (k-1)->1 write fan-in, k = 2/4/8 hosts");

  const std::vector<int> scales = {2, 4, 8};
  std::vector<Sample> samples;
  Table table({"hosts", "senders", "trace_pkts", "ce_marks", "cnps",
               "min_cnp_gap_us", "mean_fct_us"});
  telemetry::RunReport report;
  report.name = "incast-scaling";
  for (const int hosts : scales) {
    samples.push_back(run_incast(hosts));
    const Sample& s = samples.back();
    table.add_row({std::to_string(s.hosts), std::to_string(s.hosts - 1),
                   std::to_string(s.trace_packets),
                   std::to_string(s.ecn_marked), std::to_string(s.cnps),
                   s.cnps >= 2 ? fmt("%.2f", to_us(s.min_cnp_gap)) : "-",
                   fmt("%.2f", s.fct_us)});
    const std::string prefix = "incast.hosts" + std::to_string(hosts) + ".";
    report.deterministic.counters[prefix + "trace_packets"] =
        s.trace_packets;
    report.deterministic.counters[prefix + "ce_marks"] = s.ecn_marked;
    report.deterministic.counters[prefix + "cnps"] = s.cnps;
    report.deterministic.counters[prefix + "min_cnp_gap_ns"] =
        static_cast<std::uint64_t>(s.min_cnp_gap);
  }
  table.print();

  ShapeCheck check;
  bool all_ok = true;
  for (const auto& s : samples) {
    all_ok = all_ok && s.finished && s.integrity_ok;
  }
  check.expect(all_ok, "every fan-in finishes with an analyzable trace");
  check.expect(samples[0].ecn_marked == 0,
               "1:1 'incast' never congests the bottleneck (no CE marks)");
  check.expect(samples[1].ecn_marked > 0 && samples[2].cnps > 0,
               "3:1 and 7:1 fan-ins congest and draw CNPs");
  check.expect(samples[2].trace_packets > samples[1].trace_packets &&
                   samples[1].trace_packets > samples[0].trace_packets,
               "wire traffic grows with the fan-in");
  const Tick pace =
      DeviceProfile::get(NicType::kCx6Dx).default_min_time_between_cnps;
  bool paced = true;
  for (const auto& s : samples) {
    if (s.cnps >= 2) paced = paced && s.min_cnp_gap >= pace;
  }
  check.expect(paced, "CNP pacing respects the 4 us device minimum at "
                      "every scale");

  // ---- 16-host incast, end to end ---------------------------------------
  subheading("16-host incast, end to end (best of " +
             std::to_string(kIncast16Repeats) + ")");
  const Incast16Sample big = run_incast16();
  Table big_table({"hosts", "wall_ms", "trace_pkts", "ce_marks", "events"});
  big_table.add_row({std::to_string(kIncast16Hosts), fmt("%.2f", big.wall_ms),
                     std::to_string(big.trace_packets),
                     std::to_string(big.ce_marks), std::to_string(big.events)});
  big_table.print();
  // The counter names predate this leg's single-kernel form; they stay so
  // bench/baselines/incast_baseline.json keeps matching.
  report.deterministic.counters["incast.sweep16.trace_packets"] =
      big.trace_packets;
  report.deterministic.counters["incast.sweep16.ce_marks"] = big.ce_marks;
  report.deterministic.counters["incast.sweep16.roce_rx"] = big.roce_rx;
  check.expect(big.ok, "the 16-host incast finishes with intact integrity");

  if (!report_out.empty()) {
    std::string failed;
    if (!telemetry::write_report(report, report_out, &failed)) {
      std::fprintf(stderr, "error: failed to write %s\n", failed.c_str());
      return 2;
    }
    std::printf("\nreport written to %s\n", report_out.c_str());
  }
  return check.print_and_exit_code();
}
