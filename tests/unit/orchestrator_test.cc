// Unit tests for the orchestrator: intent translation (Fig. 2), flow
// registration, trace reconstruction ordering, integrity checking, and
// result collection (Table 1).
#include <gtest/gtest.h>

#include <algorithm>

#include "orchestrator/orchestrator.h"

namespace lumina {
namespace {

TestConfig small_config(RdmaVerb verb = RdmaVerb::kWrite) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = verb;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.message_size = 4096;
  return cfg;
}

TEST(Orchestrator, TranslatesWriteIntentToForwardFlow) {
  // Fig. 2: relative (qpn=1, psn=4) + runtime metadata -> absolute rule.
  Orchestrator orch(small_config(RdmaVerb::kWrite));
  orch.generator().setup();
  const auto& meta = orch.generator().connections()[0];

  const EventRule rule =
      orch.translate_intent(DataPacketEvent{1, 4, EventType::kEcn, 1});
  EXPECT_EQ(rule.flow.src_ip, meta.requester.ip);
  EXPECT_EQ(rule.flow.dst_ip, meta.responder.ip);
  EXPECT_EQ(rule.flow.dst_qpn, meta.responder.qpn);
  EXPECT_EQ(rule.psn, psn_add(meta.requester.ipsn, 3));  // 4th packet
  EXPECT_EQ(rule.iter, 1u);
  EXPECT_EQ(rule.action, EventType::kEcn);
}

TEST(Orchestrator, TranslatesReadIntentToResponseFlow) {
  // For Read, the data packets are the responder's responses, but they
  // reuse the requester's PSN space.
  Orchestrator orch(small_config(RdmaVerb::kRead));
  orch.generator().setup();
  const auto& meta = orch.generator().connections()[1];

  const EventRule rule =
      orch.translate_intent(DataPacketEvent{2, 5, EventType::kDrop, 2});
  EXPECT_EQ(rule.flow.src_ip, meta.responder.ip);
  EXPECT_EQ(rule.flow.dst_ip, meta.requester.ip);
  EXPECT_EQ(rule.flow.dst_qpn, meta.requester.qpn);
  EXPECT_EQ(rule.psn, psn_add(meta.requester.ipsn, 4));
  EXPECT_EQ(rule.iter, 2u);
}

TEST(Orchestrator, RejectsIntentForMissingConnection) {
  Orchestrator orch(small_config());
  orch.generator().setup();
  EXPECT_THROW(
      orch.translate_intent(DataPacketEvent{9, 1, EventType::kDrop, 1}),
      YamlError);
}

TEST(Orchestrator, TraceIsSortedByMirrorSequence) {
  Orchestrator orch(small_config());
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  ASSERT_GT(result.trace.size(), 0u);
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace[i].meta.mirror_seq, i);
  }
  // Switch timestamps are monotone when sorted by mirror sequence.
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].time(), result.trace[i - 1].time());
  }
}

TEST(Orchestrator, TraceTakesEveryCaptureOutOfTheDumpers) {
  Orchestrator orch(small_config());
  const TestResult& result = orch.run();
  std::uint64_t captured = 0;
  for (const auto& dumper : orch.dumpers()) {
    EXPECT_TRUE(dumper->capture().records.empty());
    EXPECT_TRUE(dumper->capture().bytes.empty());
    captured += dumper->counters().captured;
  }
  EXPECT_EQ(result.trace.size(), captured);
}

TEST(Orchestrator, IntegrityPassesOnHealthyCapture) {
  Orchestrator orch(small_config());
  const TestResult& result = orch.run();
  EXPECT_TRUE(result.integrity.ok());
  EXPECT_TRUE(result.integrity.seqnums_consecutive);
  EXPECT_TRUE(result.integrity.matches_mirrored_count);
  EXPECT_TRUE(result.integrity.matches_roce_rx_count);
  EXPECT_EQ(result.integrity.missing_seqnums, 0u);
}

TEST(Orchestrator, IntegrityDetectsDumperLoss) {
  // Starve the dumper pool: one slow core, tiny rings.
  Orchestrator::Options options;
  options.num_dumpers = 1;
  options.dumper_options.cores = 1;
  options.dumper_options.per_packet_service = 5000;  // 0.2 Mpps
  options.dumper_options.ring_capacity = 4;
  TestConfig cfg = small_config();
  cfg.traffic.message_size = 64 * 1024;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);  // the under-test traffic is unaffected
  EXPECT_FALSE(result.integrity.ok());
  EXPECT_GT(result.integrity.missing_seqnums, 0u);
  EXPECT_FALSE(result.integrity.matches_mirrored_count);
}

TEST(Orchestrator, CollectsTable1Results) {
  TestConfig cfg = small_config();
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 2, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();

  // Dumped packets.
  EXPECT_GT(result.trace.size(), 0u);
  // Network stack counters from both NICs.
  EXPECT_GT(result.requester_counters().tx_packets, 0u);
  EXPECT_GT(result.responder_counters().rx_packets, 0u);
  // Traffic generator log (application metrics).
  ASSERT_EQ(result.flows.size(), 2u);
  EXPECT_GT(result.flows[0].goodput_gbps(), 0.0);
  // Switch counters.
  EXPECT_GT(result.switch_counters.roce_rx, 0u);
  EXPECT_EQ(result.switch_counters.dropped_by_event, 1u);
  EXPECT_EQ(result.switch_counters.events_applied, 1u);
  // Connection metadata for analyzers.
  EXPECT_EQ(result.connections.size(), 2u);
  EXPECT_NE(result.connections[0].requester.qpn,
            result.connections[1].requester.qpn);
}

TEST(Orchestrator, RunIsIdempotent) {
  Orchestrator orch(small_config());
  const TestResult& first = orch.run();
  const std::size_t trace_size = first.trace.size();
  const TestResult& second = orch.run();  // returns cached result
  EXPECT_EQ(second.trace.size(), trace_size);
}

TEST(Orchestrator, ResultCopyOutlivesOrchestrator) {
  // Trace records view the capture slabs through a store that copies of
  // the trace share, so a copied result stays readable after its run.
  TestConfig cfg = small_config();
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{2, 3, EventType::kDrop, 1});
  const TestResult copy = Orchestrator(cfg).run();
  Orchestrator again(cfg);
  const TestResult& want = again.run();
  ASSERT_GT(want.trace.size(), 0u);
  ASSERT_EQ(copy.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(copy.trace[i].pkt.bytes,
                                   want.trace[i].pkt.bytes))
        << "record " << i;
  }
}

TEST(Orchestrator, DeterministicAcrossIdenticalRuns) {
  TestConfig cfg = small_config();
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{2, 3, EventType::kDrop, 1});
  Orchestrator a(cfg);
  Orchestrator b(cfg);
  const TestResult& ra = a.run();
  const TestResult& rb = b.run();
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    EXPECT_EQ(ra.trace[i].time(), rb.trace[i].time());
    EXPECT_EQ(ra.trace[i].view.bth.psn, rb.trace[i].view.bth.psn);
    EXPECT_EQ(ra.trace[i].meta.event, rb.trace[i].meta.event);
  }
  EXPECT_EQ(ra.flows[0].avg_mct_us(), rb.flows[0].avg_mct_us());
}

TEST(Orchestrator, SeedChangesQpNumbering) {
  Orchestrator::Options options_a;
  options_a.seed = 1;
  Orchestrator::Options options_b;
  options_b.seed = 2;
  Orchestrator a(small_config(), options_a);
  Orchestrator b(small_config(), options_b);
  a.run();
  b.run();
  EXPECT_NE(a.result().connections[0].requester.ipsn,
            b.result().connections[0].requester.ipsn);
}

TEST(Orchestrator, RejectsRetiredShardCounts) {
  // Options::shards survives only for source compatibility: every run uses
  // one Simulator, so anything but 1 must throw instead of being ignored.
  for (const int shards : {0, 2}) {
    Orchestrator::Options options;
    options.shards = shards;
    EXPECT_THROW(Orchestrator(small_config(), options), std::invalid_argument)
        << shards;
  }
  Orchestrator::Options options;
  options.shards = 1;
  Orchestrator orch(small_config(), options);
  EXPECT_TRUE(orch.run().finished);
}

TEST(Orchestrator, MultiGidRoutesAllAddresses) {
  TestConfig cfg = small_config();
  cfg.requester().ip_list = {Ipv4Address::from_octets(10, 0, 0, 1),
                           Ipv4Address::from_octets(10, 0, 0, 11)};
  cfg.responder().ip_list = {Ipv4Address::from_octets(10, 0, 1, 1)};
  cfg.traffic.multi_gid = true;
  cfg.traffic.num_connections = 4;
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_TRUE(result.integrity.ok());
  // Connections alternate between the two requester GIDs.
  EXPECT_EQ(result.connections[0].requester.ip.to_string(), "10.0.0.1");
  EXPECT_EQ(result.connections[1].requester.ip.to_string(), "10.0.0.11");
  EXPECT_EQ(result.connections[2].requester.ip.to_string(), "10.0.0.1");
}

}  // namespace
}  // namespace lumina
