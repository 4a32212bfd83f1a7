// Golden-trace regression tests: two canonical experiments — a Go-Back-N
// retransmission triggered by a data-packet drop, and CNP generation
// triggered by ECN marking — are replayed and their full artifact set
// (trace.pcap, counters, flows, integrity, report.json) compared
// byte-for-byte against goldens checked in under tests/golden/. Any
// behavioral drift in the simulated NICs, the injector, or the pcap bytes
// shows up as a diff here.
//
// To regenerate after an intentional behavior change:
//   LUMINA_REGEN_GOLDEN=1 ./build/tests/golden_trace_test
// then review the diff of tests/golden/ before committing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "config/test_config.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/results_io.h"
#include "telemetry/report.h"
#include "telemetry/report_diff.h"
#include "util/file_io.h"

namespace lumina {
namespace {

namespace fs = std::filesystem;

// Baked in by CMake: the source-tree directory holding the goldens.
const char* golden_root() { return LUMINA_GOLDEN_DIR; }

bool regen_requested() {
  const char* env = std::getenv("LUMINA_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

std::string file_bytes(const fs::path& path) {
  const auto bytes = read_file(path.string());
  EXPECT_TRUE(bytes.has_value()) << "cannot read " << path;
  return bytes.value_or("");
}

TestConfig gbn_drop_config() {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx6Dx;
  cfg.responder().nic_type = NicType::kCx6Dx;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 4;
  cfg.traffic.message_size = 10240;
  cfg.traffic.mtu = 1024;
  // Drop the 3rd data packet of QP connection 1: the responder NACKs and
  // the requester performs a Go-Back-N retransmission.
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 3, EventType::kDrop, 1});
  return cfg;
}

TestConfig cnp_inject_config() {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx6Dx;
  cfg.responder().nic_type = NicType::kCx6Dx;
  cfg.traffic.num_connections = 1;
  cfg.traffic.num_msgs_per_qp = 4;
  cfg.traffic.message_size = 10240;
  cfg.traffic.mtu = 1024;
  // ECN-mark three data packets: the responder's notification point must
  // emit CNPs back to the requester (subject to CNP pacing).
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 2, EventType::kEcn, 1});
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 5, EventType::kEcn, 1});
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 8, EventType::kEcn, 1});
  return cfg;
}

/// 3-requester incast onto one responder (§3.1 generalized, §6.3): the
/// 3:1 bottleneck builds the sink-port queue past the marking threshold,
/// so the golden captures the closed-loop ECN -> CNP -> DCQCN exchange on
/// top of the schema-v2 host/connection layout (docs/topology.md).
TestConfig incast_4host_config() {
  TestConfig cfg;
  cfg.hosts.clear();
  for (int i = 0; i < 3; ++i) {
    HostConfig sender;
    sender.nic_type = NicType::kCx6Dx;
    cfg.hosts.push_back(sender);
  }
  HostConfig sink;
  sink.nic_type = NicType::kCx6Dx;
  cfg.hosts.push_back(sink);
  for (int i = 0; i < 3; ++i) {
    cfg.connections.push_back(ConnectionSpec{i, 3});
  }
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.message_size = 16 * 1024;
  cfg.traffic.mtu = 1024;
  return cfg;
}

Orchestrator::Options incast_options() {
  Orchestrator::Options options;
  options.switch_options.ecn_marking_threshold_bytes = 12 * 1024;
  return options;
}

/// The examples/configs/pause_storm_incast.yaml scenario: a 3:1 incast
/// where the switch storms the first sender's ingress with 802.1Qbb pause
/// frames for 150 us mid-transfer, then resumes it — the golden pins the
/// victim's pause accounting and the recovery.
TestConfig pause_storm_incast_config() {
  TestConfig cfg;
  cfg.hosts.clear();
  for (int i = 0; i < 3; ++i) {
    HostConfig sender;
    sender.nic_type = NicType::kCx6Dx;
    cfg.hosts.push_back(sender);
  }
  HostConfig sink;
  sink.nic_type = NicType::kCx6Dx;
  cfg.hosts.push_back(sink);
  for (int i = 0; i < 3; ++i) {
    cfg.connections.push_back(ConnectionSpec{i, 3});
  }
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_msgs_per_qp = 3;
  cfg.traffic.message_size = 16 * 1024;
  cfg.traffic.mtu = 1024;
  DataPacketEvent storm{1, 4, EventType::kPauseStorm, 1};
  storm.fault.duration = 150 * kMicrosecond;
  cfg.traffic.data_pkt_events.push_back(storm);
  return cfg;
}

/// Runs the experiment and compares every artifact against the golden
/// directory, or rewrites the goldens when LUMINA_REGEN_GOLDEN is set.
void check_against_golden(const std::string& scenario, const TestConfig& cfg,
                          const Orchestrator::Options& options = {}) {
  const TestResult result = Orchestrator(cfg, options).run();
  ASSERT_TRUE(result.finished) << scenario;
  ASSERT_TRUE(result.integrity.ok()) << scenario << ": "
                                     << result.integrity.to_string();

  const fs::path golden_dir = fs::path(golden_root()) / scenario;
  if (regen_requested()) {
    fs::remove_all(golden_dir);
    std::string failed;
    ASSERT_TRUE(write_results(result, golden_dir.string(), &failed))
        << failed;
    GTEST_SKIP() << "regenerated goldens in " << golden_dir;
  }

  ASSERT_TRUE(fs::is_directory(golden_dir))
      << "missing goldens for " << scenario
      << "; run with LUMINA_REGEN_GOLDEN=1 to create them";

  // The report's "name" is its directory's name, so the actual run goes
  // into a directory named after the scenario, as its golden does.
  const fs::path actual_root =
      fs::temp_directory_path() /
      ("lumina_golden_" + std::to_string(::getpid()));
  const fs::path actual_dir = actual_root / scenario;
  fs::remove_all(actual_dir);
  std::string failed;
  ASSERT_TRUE(write_results(result, actual_dir.string(), &failed)) << failed;

  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator(golden_dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const fs::path actual = actual_dir / name;
    ASSERT_TRUE(fs::is_regular_file(actual))
        << scenario << ": artifact " << name << " not produced";
    if (name == "report.json") {
      // Structured diff at tolerance 0 on top of the byte compare: when
      // bytes ever drift, this names the exact metrics that moved.
      const auto diff = telemetry::diff_reports(
          telemetry::read_report_file(entry.path().string()),
          telemetry::read_report_file(actual.string()),
          telemetry::DiffOptions{});
      EXPECT_TRUE(diff.passed())
          << scenario << ": report.json metrics drifted\n"
          << telemetry::format_diff(diff);
      EXPECT_GT(diff.compared, 0u) << scenario;
    }
    EXPECT_EQ(file_bytes(actual), file_bytes(entry.path()))
        << scenario << ": " << name
        << " drifted from golden; if intentional, regenerate with "
           "LUMINA_REGEN_GOLDEN=1 and review the diff";
    ++compared;
  }
  EXPECT_GE(compared, 8u) << scenario << ": golden set incomplete";
  fs::remove_all(actual_root);
}

TEST(GoldenTrace, GoBackNDropMatchesGolden) {
  check_against_golden("gbn_drop", gbn_drop_config());
}

TEST(GoldenTrace, CnpInjectionMatchesGolden) {
  check_against_golden("cnp_inject", cnp_inject_config());
}

TEST(GoldenTrace, Incast4HostMatchesGolden) {
  check_against_golden("incast_4host", incast_4host_config(),
                       incast_options());
  // The multi-host artifact set: hosts beyond the classic pair get their
  // own counter files next to the aliased requester/responder ones.
  const fs::path dir = fs::path(golden_root()) / "incast_4host";
  if (fs::is_directory(dir)) {
    EXPECT_TRUE(fs::is_regular_file(dir / "requester_counters.txt"));
    EXPECT_TRUE(fs::is_regular_file(dir / "responder_counters.txt"));
    EXPECT_TRUE(fs::is_regular_file(dir / "host2_counters.txt"));
    EXPECT_TRUE(fs::is_regular_file(dir / "host3_counters.txt"));
  }
}

TEST(GoldenTrace, PauseStormIncastMatchesGolden) {
  check_against_golden("pause_storm_incast", pause_storm_incast_config());
}

// Semantic guards alongside the byte-level goldens, so a regen can't
// silently bless a trace that lost the behavior under test.
TEST(GoldenTrace, GoBackNGoldenContainsRetransmission) {
  const TestResult result = Orchestrator(gbn_drop_config()).run();
  EXPECT_GT(result.switch_counters.dropped_by_event, 0u);
  // Go-Back-N resends the dropped packet and its successors: the wire
  // carries more data packets than a loss-free run would need.
  const TestConfig clean = [] {
    TestConfig cfg = gbn_drop_config();
    cfg.traffic.data_pkt_events.clear();
    return cfg;
  }();
  const TestResult baseline = Orchestrator(clean).run();
  EXPECT_GT(result.trace.size(), baseline.trace.size());
}

TEST(GoldenTrace, CnpGoldenContainsCnps) {
  const TestResult result = Orchestrator(cnp_inject_config()).run();
  std::size_t cnps = 0;
  for (const auto& packet : result.trace) {
    if (packet.view.is_cnp()) ++cnps;
  }
  EXPECT_GT(cnps, 0u) << "ECN marks produced no CNPs";
}

TEST(GoldenTrace, IncastGoldenContainsCongestionFeedback) {
  const TestResult result =
      Orchestrator(incast_4host_config(), incast_options()).run();
  ASSERT_TRUE(result.finished);
  ASSERT_EQ(result.host_counters.size(), 4u);
  // The 3:1 bottleneck actually congested: queue-driven CE marks, and the
  // sink's notification point turned them into CNPs on the wire.
  EXPECT_GT(result.switch_counters.ecn_marked_by_queue, 0u);
  std::size_t cnps = 0;
  for (const auto& packet : result.trace) {
    if (packet.view.is_cnp()) ++cnps;
  }
  EXPECT_GT(cnps, 0u) << "incast produced no CNPs";
}

TEST(GoldenTrace, PauseStormGoldenShowsCollapseAndRecovery) {
  const TestResult result = Orchestrator(pause_storm_incast_config()).run();
  // Recovery: the resume frame reopens the priority and the whole incast
  // still completes with intact integrity.
  ASSERT_TRUE(result.finished);
  ASSERT_TRUE(result.integrity.ok()) << result.integrity.to_string();
  // The victim (connection 1's sender = host 0, "requester") received the
  // storm and actually gated its egress.
  EXPECT_EQ(result.telemetry.counters.at("injector.pause_storms"), 1u);
  EXPECT_GT(result.telemetry.counters.at("rnic.requester.pause_frames_rx"),
            0u);
  EXPECT_GT(result.telemetry.counters.at("rnic.requester.pause_resumes_rx"),
            0u);
  EXPECT_GT(result.telemetry.counters.at("rnic.requester.paused_ns"), 0u);

  // Goodput collapse: against a storm-free run of the same incast, the
  // stormed sender's flow is measurably slower.
  const TestConfig clean = [] {
    TestConfig cfg = pause_storm_incast_config();
    cfg.traffic.data_pkt_events.clear();
    return cfg;
  }();
  const TestResult baseline = Orchestrator(clean).run();
  ASSERT_EQ(result.flows.size(), 3u);
  ASSERT_EQ(baseline.flows.size(), 3u);
  EXPECT_LT(result.flows[0].goodput_gbps(),
            baseline.flows[0].goodput_gbps());
  EXPECT_GT(result.flows[0].avg_mct_us(), baseline.flows[0].avg_mct_us());
  // And the baseline's metric set has no pause counters at all — the
  // dormant-fault byte-identity contract.
  EXPECT_EQ(baseline.telemetry.counters.count("injector.pause_storms"), 0u);
  EXPECT_EQ(
      baseline.telemetry.counters.count("rnic.requester.pause_frames_rx"),
      0u);
}

}  // namespace
}  // namespace lumina
