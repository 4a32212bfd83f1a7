// Tests for the extensions beyond the paper's stock tool:
//  * delay and reorder injection events (§7 future work),
//  * the stateful in-switch QP discovery ablation (§3.3 alternative),
//  * Table 1 result persistence (results_io),
//  * configurable ACK coalescing.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "analyzers/retrans_perf.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/results_io.h"

namespace lumina {
namespace {

TestConfig base_config() {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_connections = 1;
  cfg.traffic.num_msgs_per_qp = 1;
  cfg.traffic.message_size = 10 * 1024;
  return cfg;
}

// ---------------------------------------------------------------------------
// Delay events
// ---------------------------------------------------------------------------

TEST(DelayEvent, ShiftsOnePacketWithoutLoss) {
  TestConfig cfg = base_config();
  DataPacketEvent ev{1, 5, EventType::kDelay, 1};
  ev.delay = 30 * kMicrosecond;
  cfg.traffic.data_pkt_events.push_back(ev);
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();

  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.flows[0].completed(), 1u);
  // The receiver sees a gap and NAKs; Go-Back-N recovery (~8 us on CX5)
  // beats the 30 us hold, so the transfer completes BEFORE the delayed
  // original even arrives — which then lands as a duplicate.
  EXPECT_LT(result.flows[0].avg_mct_us(), 30.0);
  EXPECT_GE(result.responder_counters().out_of_sequence, 1u);
  EXPECT_GE(result.responder_counters().duplicate_request, 1u);
  EXPECT_TRUE(result.integrity.ok());
  // The mirrored copy is tagged with the delay event type.
  int tagged = 0;
  for (const auto& p : result.trace) {
    if (p.meta.event == EventType::kDelay) ++tagged;
  }
  EXPECT_EQ(tagged, 1);
}

TEST(DelayEvent, LongDelayBehavesLikeLossThenDuplicate) {
  // Delay beyond the NACK path: the receiver recovers via Go-Back-N, then
  // the late original arrives as a duplicate.
  TestConfig cfg = base_config();
  DataPacketEvent ev{1, 5, EventType::kDelay, 1};
  ev.delay = 100 * kMicrosecond;
  cfg.traffic.data_pkt_events.push_back(ev);
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.flows[0].completed(), 1u);
  EXPECT_GE(result.responder_counters().out_of_sequence, 1u);
  EXPECT_GE(result.responder_counters().duplicate_request, 1u);
}

TEST(DelayEvent, ParsesFromYaml) {
  const TrafficConfig cfg = load_traffic_config(parse_yaml(
      "data-pkt-events:\n"
      "- {qpn: 1, psn: 5, type: delay, delay-us: 25, iter: 1}\n"));
  ASSERT_EQ(cfg.data_pkt_events.size(), 1u);
  EXPECT_EQ(cfg.data_pkt_events[0].type, EventType::kDelay);
  EXPECT_EQ(cfg.data_pkt_events[0].delay, 25 * kMicrosecond);
}

// ---------------------------------------------------------------------------
// Reorder events
// ---------------------------------------------------------------------------

TEST(ReorderEvent, SwapsAdjacentPackets) {
  TestConfig cfg = base_config();
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 5, EventType::kReorder, 1});
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();

  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.flows[0].completed(), 1u);
  // Go-Back-N tolerates no reordering: packet 6 before 5 looks like a loss
  // of 5 -> NACK and a rewind, even though nothing was dropped. This is
  // exactly why lossy-RoCE debates care about reordering (§7).
  EXPECT_GE(result.responder_counters().out_of_sequence, 1u);
  EXPECT_GE(result.requester_counters().packet_seq_err, 1u);
  EXPECT_GE(result.requester_counters().retransmitted_packets, 1u);
}

TEST(ReorderEvent, TailPacketFlushedByTimeout) {
  // Reordering the LAST packet leaves no successor to swap with; the
  // safety valve flushes it after the timeout and the transfer completes.
  TestConfig cfg = base_config();
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 10, EventType::kReorder, 1});
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.flows[0].completed(), 1u);
  // Completion waited for the flush timeout.
  EXPECT_GT(result.flows[0].avg_mct_us(),
            to_us(EventInjectorSwitch::kReorderFlushTimeout));
}

// ---------------------------------------------------------------------------
// Stateful in-switch QP discovery (ablation)
// ---------------------------------------------------------------------------

TEST(StatefulDiscovery, SingleConnectionMatchesStatelessDesign) {
  TestConfig cfg = base_config();
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 5, EventType::kDrop, 1});

  Orchestrator stateless(cfg);
  const TestResult& a = stateless.run();

  Orchestrator::Options options;
  options.stateful_qp_discovery = true;
  Orchestrator stateful(cfg, options);
  const TestResult& b = stateful.run();

  // Same packet dropped, same recovery shape.
  const auto ea = analyze_retransmissions(a.trace, RdmaVerb::kWrite);
  const auto eb = analyze_retransmissions(b.trace, RdmaVerb::kWrite);
  ASSERT_EQ(ea.size(), 1u);
  ASSERT_EQ(eb.size(), 1u);
  EXPECT_EQ(ea[0].iter, eb[0].iter);
  EXPECT_EQ(b.switch_counters.events_applied, 1u);
  EXPECT_EQ(stateful.injector().discovered_flows(), 1);
}

TEST(StatefulDiscovery, DiscoversEveryConcurrentFlow) {
  TestConfig cfg = base_config();
  cfg.traffic.num_connections = 4;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{2, 3, EventType::kDrop, 1});
  Orchestrator::Options options;
  options.stateful_qp_discovery = true;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(orch.injector().discovered_flows(), 4);
  // The rule fired on *a* connection — but with concurrent flows the
  // binding follows arrival order, not config order (the design weakness
  // the paper's stateless approach avoids).
  EXPECT_EQ(result.switch_counters.events_applied, 1u);
}

TEST(StatefulDiscovery, BindsRulesByFlowArrivalOrder) {
  // The relative rule names "connection 2". The stateless design would
  // join that with config connection 2's announced metadata; the stateful
  // ablation instead binds it to the SECOND flow to appear on the wire —
  // the arrival-order dependence §3.3 argues against.
  TestConfig cfg = base_config();
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{2, 3, EventType::kDrop, 1});
  Orchestrator::Options options;
  options.stateful_qp_discovery = true;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(orch.injector().discovered_flows(), 2);
  EXPECT_EQ(result.switch_counters.dropped_by_event, 1u);

  // Reconstruct the order in which distinct data flows first crossed the
  // switch, straight from the mirrored trace.
  std::vector<FlowKey> arrival;
  for (const auto& p : result.trace) {
    if (!p.is_data()) continue;
    const FlowKey flow{p.view.src_ip, p.view.dst_ip, p.view.bth.dest_qpn};
    if (std::find(arrival.begin(), arrival.end(), flow) == arrival.end()) {
      arrival.push_back(flow);
    }
  }
  ASSERT_GE(arrival.size(), 2u);

  // Exactly one recovery episode, and it sits on the second-ARRIVING flow.
  const auto episodes = analyze_retransmissions(result.trace, RdmaVerb::kWrite);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].flow, arrival[1]);
  // The untouched flow is the first arrival.
  EXPECT_NE(episodes[0].flow, arrival[0]);
}

// ---------------------------------------------------------------------------
// Egress-queue ECN marking (closed-loop congestion extension)
// ---------------------------------------------------------------------------

TEST(QueueEcnMarking, MarksOnlyWhenBottleneckBuilds) {
  // Same-speed hosts: no queue buildup, no marks even with the threshold
  // armed.
  TestConfig cfg = base_config();
  cfg.traffic.message_size = 256 * 1024;
  Orchestrator::Options options;
  options.switch_options.ecn_marking_threshold_bytes = 50 * 1024;
  {
    Orchestrator orch(cfg, options);
    const TestResult& result = orch.run();
    ASSERT_TRUE(result.finished);
    EXPECT_EQ(result.switch_counters.ecn_marked_by_queue, 0u);
  }
  // 100 GbE sender into a 40 GbE receiver: the bottleneck port queue
  // crosses the threshold and data packets get CE.
  cfg.responder().nic_type = NicType::kCx4Lx;
  cfg.requester().roce.min_time_between_cnps = 4 * kMicrosecond;
  cfg.responder().roce.min_time_between_cnps = 4 * kMicrosecond;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_GT(result.switch_counters.ecn_marked_by_queue, 0u);
  EXPECT_GE(result.responder_counters().np_ecn_marked_roce_packets, 1u);
  EXPECT_GE(result.requester_counters().rp_cnp_handled, 1u);
  // Marks keep iCRC valid (ECN is a masked field) so nothing is discarded.
  EXPECT_EQ(result.responder_counters().icrc_error_packets, 0u);
}

// ---------------------------------------------------------------------------
// Verb combinations (§3.2: bi-directional traffic)
// ---------------------------------------------------------------------------

TEST(VerbCombination, SendPlusReadParsesFromYaml) {
  const TrafficConfig cfg =
      load_traffic_config(parse_yaml("rdma-verb: send+read\n"));
  EXPECT_EQ(cfg.verb, RdmaVerb::kSendRecv);
  ASSERT_TRUE(cfg.secondary_verb.has_value());
  EXPECT_EQ(*cfg.secondary_verb, RdmaVerb::kRead);
  EXPECT_THROW(load_traffic_config(parse_yaml("rdma-verb: send+atomic\n")),
               YamlError);
}

TEST(VerbCombination, SendPlusReadGeneratesBidirectionalData) {
  TestConfig cfg = base_config();
  cfg.traffic.verb = RdmaVerb::kSendRecv;
  cfg.traffic.secondary_verb = RdmaVerb::kRead;
  cfg.traffic.num_msgs_per_qp = 6;  // 3 Sends + 3 Reads, alternating
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.flows[0].completed(), 6u);
  EXPECT_TRUE(result.integrity.ok());

  const auto& meta = result.connections[0];
  int req_to_resp_data = 0;
  int resp_to_req_data = 0;
  for (const auto& p : result.trace) {
    if (!p.is_data()) continue;
    if (p.view.src_ip == meta.requester.ip) ++req_to_resp_data;
    if (p.view.src_ip == meta.responder.ip) ++resp_to_req_data;
  }
  // 3 x 10 KB Sends requester->responder, 3 x 10 KB of Read responses
  // responder->requester.
  EXPECT_EQ(req_to_resp_data, 30);
  EXPECT_EQ(resp_to_req_data, 30);
}

TEST(VerbCombination, WritePlusSendSharesOnePsnStream) {
  TestConfig cfg = base_config();
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.secondary_verb = RdmaVerb::kSendRecv;
  cfg.traffic.num_msgs_per_qp = 4;
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.flows[0].completed(), 4u);
  // PSNs in the requester->responder stream are strictly consecutive
  // across the interleaved Write and Send messages.
  const auto& meta = result.connections[0];
  std::uint32_t expected = meta.requester.ipsn;
  for (const auto& p : result.trace) {
    if (!p.is_data() || p.view.src_ip != meta.requester.ip) continue;
    EXPECT_EQ(p.view.bth.psn, expected);
    expected = psn_add(expected, 1);
  }
}

// ---------------------------------------------------------------------------
// Results persistence
// ---------------------------------------------------------------------------

TEST(ResultsIo, WritesAllTable1Artifacts) {
  TestConfig cfg = base_config();
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 3, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();

  const std::string dir = ::testing::TempDir() + "/lumina_results_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(write_results(result, dir));

  for (const char* name :
       {"trace.pcap", "integrity.txt", "requester_counters.txt",
        "responder_counters.txt", "switch_counters.txt", "flows.csv",
        "connections.txt"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name)) << name;
    EXPECT_GT(std::filesystem::file_size(dir + "/" + name), 0u) << name;
  }

  // Spot-check contents.
  std::ifstream flows(dir + "/flows.csv");
  std::string line;
  std::getline(flows, line);
  EXPECT_NE(line.find("completion_time_us"), std::string::npos);
  int rows = 0;
  while (std::getline(flows, line)) ++rows;
  EXPECT_EQ(rows, 4);  // 2 connections x 2 messages

  std::ifstream counters(dir + "/requester_counters.txt");
  bool found_seq_err = false;
  while (std::getline(counters, line)) {
    if (line.rfind("packet_seq_err 1", 0) == 0) found_seq_err = true;
  }
  EXPECT_TRUE(found_seq_err);
  std::filesystem::remove_all(dir);
}

TEST(ResultsIo, FailsCleanlyOnBadPath) {
  TestResult result;
  EXPECT_FALSE(write_results(result, "/proc/definitely/not/writable"));
}

// ---------------------------------------------------------------------------
// Configurable ACK coalescing
// ---------------------------------------------------------------------------

TEST(AckCoalescing, DefaultIntervalAcksEverySixteenthPacket) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.message_size = 64 * 1024;  // 64 packets, one message
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  int acks = 0;
  for (const auto& p : result.trace) {
    if (p.view.bth.opcode == IbOpcode::kAcknowledge && p.view.aeth &&
        p.view.aeth->is_ack()) {
      ++acks;
    }
  }
  // Coalescing=16 over 64 packets: 3 intra-message ACKs (the 64th packet's
  // coalesced slot is superseded by the per-message ACK) + the final ACK.
  EXPECT_GE(acks, 4);
  EXPECT_LE(acks, 6);
}

}  // namespace
}  // namespace lumina
