// Integration tests for the testbed the Orchestrator builds and the k->1
// incast scenario it enables: N RNICs around the event-injector switch,
// and a 3-requester incast onto one responder whose congestion feedback
// reproduces the per-device CNP coalescing behaviors of §6.3 (NVIDIA's
// documented 4 us minimum CNP interval vs E810's hidden, unconfigurable
// ~50 us).
#include <gtest/gtest.h>

#include "analyzers/cnp_analyzer.h"
#include "analyzers/counter_analyzer.h"
#include "config/test_config.h"
#include "orchestrator/orchestrator.h"
#include "rnic/device_profile.h"

namespace lumina {
namespace {

/// k senders incast onto one sink host; every sender drives one write
/// connection into the sink.
TestConfig incast_config(int senders, NicType sender_nic, NicType sink_nic) {
  TestConfig cfg;
  cfg.hosts.clear();
  for (int i = 0; i < senders; ++i) {
    HostConfig host;
    host.nic_type = sender_nic;
    cfg.hosts.push_back(host);
  }
  HostConfig sink;
  sink.nic_type = sink_nic;
  cfg.hosts.push_back(sink);
  for (int i = 0; i < senders; ++i) {
    cfg.connections.push_back(ConnectionSpec{i, senders});
  }
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.message_size = 64 * 1024;
  cfg.traffic.mtu = 1024;
  return cfg;
}

/// Marks data packets RED-style once the switch egress queue toward the
/// sink crosses the threshold — the closed-loop congestion that makes the
/// incast generate CNP streams.
Orchestrator::Options ecn_marking_options() {
  Orchestrator::Options options;
  options.switch_options.ecn_marking_threshold_bytes = 30 * 1024;
  return options;
}

// ---------------------------------------------------------------------------
// Testbed wiring
// ---------------------------------------------------------------------------

TEST(Orchestrator, BuildsDeclaredTopology) {
  Orchestrator orch(incast_config(3, NicType::kCx6Dx, NicType::kE810));

  ASSERT_EQ(orch.num_hosts(), 4);
  // Hosts 0/1 answer to the classic role names (QPN seeds and metric
  // prefixes depend on them); later hosts are host<i>.
  EXPECT_EQ(orch.nic(0).name(), "requester");
  EXPECT_EQ(orch.nic(1).name(), "responder");
  EXPECT_EQ(orch.nic(2).name(), "host2");
  EXPECT_EQ(orch.nic(3).name(), "host3");
  // Port layout: one switch port per host, the two dumpers behind them.
  EXPECT_EQ(orch.dumpers().size(), 2u);
  EXPECT_EQ(orch.injector().num_ports(), 6);
  // Per-host profiles took: host 3 is the Intel NIC.
  EXPECT_EQ(orch.nic(3).profile().type, NicType::kE810);
  EXPECT_NE(orch.nic(0).mac().to_u48(), orch.nic(2).mac().to_u48());
  EXPECT_NE(orch.nic(2).mac().to_u48(), orch.nic(3).mac().to_u48());
}

// ---------------------------------------------------------------------------
// 4-host incast end-to-end
// ---------------------------------------------------------------------------

TEST(Incast, ThreeToOneCompletesWithPerHostCounters) {
  TestConfig cfg = incast_config(3, NicType::kCx6Dx, NicType::kCx6Dx);
  Orchestrator orch(cfg, ecn_marking_options());
  const TestResult& result = orch.run();

  ASSERT_TRUE(result.finished);
  ASSERT_TRUE(result.integrity.ok()) << result.integrity.to_string();
  ASSERT_EQ(result.flows.size(), 3u);
  for (const auto& flow : result.flows) {
    EXPECT_EQ(flow.completed(), 2u);
  }

  // Counters are keyed by host index: one entry per host, senders transmit
  // the data, the sink receives the union.
  ASSERT_EQ(result.host_counters.size(), 4u);
  const std::uint64_t sink_rx = result.host_counters[3].rx_packets;
  for (int s = 0; s < 3; ++s) {
    EXPECT_GT(result.host_counters[static_cast<std::size_t>(s)].tx_packets,
              0u);
    EXPECT_LT(result.host_counters[static_cast<std::size_t>(s)].tx_packets,
              sink_rx);
  }
  // Hosts 0/1 stay reachable through the legacy aliases.
  EXPECT_EQ(result.requester_counters().tx_packets,
            result.host_counters[0].tx_packets);

  // Connection metadata carries the host endpoints.
  ASSERT_EQ(result.connections.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(result.connections[static_cast<std::size_t>(i)].src_host, i);
    EXPECT_EQ(result.connections[static_cast<std::size_t>(i)].dst_host, 3);
  }

  // The host-keyed counter analyzer agrees with the trace.
  std::vector<HostCountersView> hosts(4);
  std::vector<std::pair<int, int>> pairs;
  for (const auto& meta : result.connections) {
    pairs.emplace_back(meta.src_host, meta.dst_host);
    hosts[static_cast<std::size_t>(meta.src_host)].ips = {meta.requester.ip};
    hosts[static_cast<std::size_t>(meta.dst_host)].ips = {meta.responder.ip};
  }
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    hosts[h].counters = result.host_counters[h];
  }
  const CounterReport report =
      check_counters_hosts(result.trace, cfg.traffic.verb, hosts, pairs);
  EXPECT_TRUE(report.consistent());
}

TEST(Incast, CongestionMarksFlowBackAsCnps) {
  TestConfig cfg = incast_config(3, NicType::kCx6Dx, NicType::kCx6Dx);
  Orchestrator orch(cfg, ecn_marking_options());
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);

  // The 3:1 bottleneck builds the egress queue past the threshold: data
  // packets get CE, the sink's notification point answers with CNPs, and
  // every sender's reaction point handles some.
  EXPECT_GT(result.switch_counters.ecn_marked_by_queue, 0u);
  EXPECT_GT(result.host_counters[3].np_ecn_marked_roce_packets, 0u);
  EXPECT_GT(result.host_counters[3].np_cnp_sent, 0u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_GT(result.host_counters[static_cast<std::size_t>(s)].rp_cnp_handled,
              0u)
        << "sender " << s;
  }
}

// ---------------------------------------------------------------------------
// CNP coalescing per device profile (§6.3)
// ---------------------------------------------------------------------------

TEST(Incast, NvidiaSinkPacesCnpsAtDocumentedFourMicroseconds) {
  // CX6 Dx rate-limits CNP generation per PORT with the documented 4 us
  // default: across ALL reaction points the gap never drops below it.
  TestConfig cfg = incast_config(3, NicType::kCx6Dx, NicType::kCx6Dx);
  cfg.traffic.message_size = 512 * 1024;  // sustain the congestion episode
  Orchestrator orch(cfg, ecn_marking_options());
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);

  const DeviceProfile& profile = DeviceProfile::get(NicType::kCx6Dx);
  ASSERT_EQ(profile.cnp_mode, CnpRateLimitMode::kPerPort);
  const Ipv4Address sink_ip = result.connections[0].responder.ip;
  const CnpReport cnps = analyze_cnps(result.trace, {sink_ip});
  ASSERT_GE(cnps.cnps.size(), 2u) << "incast produced too few CNPs to "
                                     "measure coalescing";
  const auto gap = cnps.min_interval_global();
  ASSERT_TRUE(gap.has_value());
  EXPECT_GE(*gap, profile.default_min_time_between_cnps);
  // Marks outnumber CNPs — that is what coalescing means. Queue-driven CE
  // marks land after the mirror tap, so the ground truth is the sink's
  // notification-point counter, not the trace.
  EXPECT_GT(result.host_counters[3].np_ecn_marked_roce_packets,
            cnps.cnps.size());
}

TEST(Incast, E810SinkIgnoresConfiguredCnpIntervalAndUsesHiddenFiftyUs) {
  // E810's CNP pacing is hidden (~50 us, per QP) and NOT configurable:
  // asking for 4 us must change nothing (§6.3).
  TestConfig cfg = incast_config(3, NicType::kCx6Dx, NicType::kE810);
  cfg.traffic.message_size = 512 * 1024;  // long enough for repeat CNPs
  cfg.hosts[3].roce.min_time_between_cnps = 4 * kMicrosecond;
  Orchestrator orch(cfg, ecn_marking_options());
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);

  const DeviceProfile& profile = DeviceProfile::get(NicType::kE810);
  ASSERT_EQ(profile.cnp_mode, CnpRateLimitMode::kPerQp);
  ASSERT_FALSE(profile.cnp_interval_configurable);
  EXPECT_EQ(profile.default_min_time_between_cnps, 50 * kMicrosecond);

  const Ipv4Address sink_ip = result.connections[0].responder.ip;
  const CnpReport cnps = analyze_cnps(result.trace, {sink_ip});
  ASSERT_GE(cnps.cnps.size(), 2u);
  // Per-QP pacing: within each (reaction point, QP) stream the hidden
  // 50 us floor holds, even though the config asked for 4 us.
  const auto per_qp = cnps.min_interval_per_qp();
  ASSERT_TRUE(per_qp.has_value());
  EXPECT_GE(*per_qp, profile.default_min_time_between_cnps);

  // §6.2.4: the trace carries CNPs but E810's cnpSent counter is stuck.
  EXPECT_EQ(result.host_counters[3].np_cnp_sent, 0u);
  EXPECT_GT(cnps.cnps.size(), 0u);
}

}  // namespace
}  // namespace lumina
