// Robustness sweeps: 24-bit PSN wraparound in live transfers, MTU
// variations, many-QP scale, and long-running stability.
#include <gtest/gtest.h>

#include "analyzers/gbn_fsm.h"
#include "orchestrator/orchestrator.h"
#include "rnic/rnic.h"

namespace lumina {
namespace {

// ---------------------------------------------------------------------------
// PSN wraparound: a transfer whose PSN stream crosses 2^24 - 1 -> 0.
// The orchestrator draws IPSNs below 2^22, so wrap is exercised with
// directly wired RNICs (the rnic_test harness pattern).
// ---------------------------------------------------------------------------

class WireNode : public Node {
 public:
  explicit WireNode(Simulator* sim)
      : port0_(sim, this, 0), port1_(sim, this, 1) {}
  void handle_packet(int in_port, Packet pkt) override {
    const auto view = parse_roce(pkt);
    if (view && drop_psn && view->bth.psn == *drop_psn &&
        is_data_opcode(view->bth.opcode) && drops_left > 0) {
      --drops_left;
      return;
    }
    (in_port == 0 ? port1_ : port0_).send(std::move(pkt));
  }
  Port& port0() { return port0_; }
  Port& port1() { return port1_; }

  std::optional<std::uint32_t> drop_psn;
  int drops_left = 0;

 private:
  Port port0_;
  Port port1_;
};

struct WrapHarness {
  Simulator sim;
  WireNode wire{&sim};
  std::unique_ptr<Rnic> req;
  std::unique_ptr<Rnic> resp;
  QueuePair* rq = nullptr;
  QueuePair* rs = nullptr;

  void build(std::uint32_t req_ipsn, RdmaVerb /*verb*/) {
    req = std::make_unique<Rnic>(&sim, "req",
                                 DeviceProfile::get(NicType::kCx5),
                                 RoceParameters{}, MacAddress::from_u48(0xaa));
    resp = std::make_unique<Rnic>(&sim, "resp",
                                  DeviceProfile::get(NicType::kCx5),
                                  RoceParameters{}, MacAddress::from_u48(0xbb));
    connect(req->port(), wire.port0(), LinkParams{100.0, 200});
    connect(resp->port(), wire.port1(), LinkParams{100.0, 200});
    rq = req->create_qp({});
    rs = resp->create_qp({});
    QpEndpointInfo req_info{Ipv4Address::from_octets(10, 0, 0, 1), rq->qpn(),
                            req_ipsn, 0x1000, 1 << 20, 0x11};
    QpEndpointInfo resp_info{Ipv4Address::from_octets(10, 0, 0, 2), rs->qpn(),
                             9000, 0x2000, 1 << 20, 0x22};
    rq->connect(req_info, resp_info);
    rs->connect(resp_info, req_info);
  }
};

class PsnWrapTest : public ::testing::TestWithParam<RdmaVerb> {};

TEST_P(PsnWrapTest, TransferAcrossWrapCompletes) {
  WrapHarness h;
  // 32 packets starting 10 before the wrap point.
  h.build(psn_add(0, -10), GetParam());
  std::vector<WorkCompletion> completions;
  h.rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  if (GetParam() == RdmaVerb::kSendRecv) {
    for (int i = 0; i < 2; ++i) h.rs->post_recv(static_cast<std::uint64_t>(i));
  }
  h.rq->post_send({1, GetParam(), 16 * 1024, 0x2000, 0x22});
  h.rq->post_send({2, GetParam(), 16 * 1024, 0x2000, 0x22});
  h.sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  EXPECT_EQ(completions[1].status, WcStatus::kSuccess);
}

TEST_P(PsnWrapTest, LossRecoveryAcrossWrap) {
  WrapHarness h;
  h.build(psn_add(0, -5), GetParam());
  // Drop the packet exactly at PSN 0 (the wrap point) once.
  h.wire.drop_psn = 0;
  h.wire.drops_left = 1;
  std::vector<WorkCompletion> completions;
  h.rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  if (GetParam() == RdmaVerb::kSendRecv) h.rs->post_recv(0);
  h.rq->post_send({1, GetParam(), 16 * 1024, 0x2000, 0x22});
  h.sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  const auto& counters = GetParam() == RdmaVerb::kRead
                             ? h.resp->counters()
                             : h.req->counters();
  EXPECT_GE(counters.retransmitted_packets, 1u);
}

INSTANTIATE_TEST_SUITE_P(Verbs, PsnWrapTest,
                         ::testing::Values(RdmaVerb::kWrite, RdmaVerb::kRead,
                                           RdmaVerb::kSendRecv));

// ---------------------------------------------------------------------------
// MTU sweep
// ---------------------------------------------------------------------------

class MtuSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MtuSweepTest, TransfersAndRecoversAtEveryMtu) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.message_size = 20 * 1024;
  cfg.traffic.mtu = GetParam();
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 2, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_TRUE(result.integrity.ok());
  EXPECT_EQ(result.flows[0].completed(), 2u);
  // Packet sizes in the trace respect the MTU.
  for (const auto& p : result.trace) {
    if (p.is_data()) {
      EXPECT_LE(p.view.payload_len, GetParam());
    }
  }
  const auto gbn = check_gbn_compliance(result.trace, RdmaVerb::kWrite);
  EXPECT_TRUE(gbn.compliant());
}

INSTANTIATE_TEST_SUITE_P(Mtus, MtuSweepTest,
                         ::testing::Values(256u, 512u, 1024u, 2048u, 4096u));

// ---------------------------------------------------------------------------
// Scale
// ---------------------------------------------------------------------------

TEST(Scale, SixtyFourConnectionsComplete) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_connections = 64;
  cfg.traffic.num_msgs_per_qp = 3;
  cfg.traffic.message_size = 8192;
  cfg.traffic.barrier_sync = true;
  Orchestrator::Options options;
  options.num_dumpers = 3;
  options.dumper_options.per_packet_service = 80;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_TRUE(result.integrity.ok()) << result.integrity.to_string();
  for (const auto& flow : result.flows) {
    EXPECT_EQ(flow.completed(), 3u);
  }
  // Aggregate goodput is close to fair sharing: every flow within 3x of
  // every other (round-robin egress arbitration).
  double min_gput = 1e9, max_gput = 0;
  for (const auto& flow : result.flows) {
    min_gput = std::min(min_gput, flow.goodput_gbps());
    max_gput = std::max(max_gput, flow.goodput_gbps());
  }
  EXPECT_LT(max_gput, 3 * min_gput);
}

TEST(Scale, ManyEventsAcrossManyFlows) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_connections = 16;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.message_size = 16 * 1024;
  // One mark and one drop per connection. The mark comes FIRST in PSN
  // order: a drop rewinds the stream into round 2, so a later iter=1 rule
  // would never fire (Fig. 3 ITER semantics).
  for (int c = 1; c <= 16; ++c) {
    cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
        c, static_cast<std::uint32_t>(c), EventType::kEcn, 1});
    cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
        c, static_cast<std::uint32_t>(16 + c), EventType::kDrop, 1});
  }
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_TRUE(result.integrity.ok());
  EXPECT_EQ(result.switch_counters.events_applied, 32u);
  EXPECT_EQ(result.switch_counters.dropped_by_event, 16u);
  for (const auto& flow : result.flows) {
    EXPECT_EQ(flow.completed(), 2u);
    EXPECT_FALSE(flow.aborted);
  }
}

TEST(Scale, LongRunRemainsStable) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx6Dx;
  cfg.responder().nic_type = NicType::kCx6Dx;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 200;
  cfg.traffic.message_size = 32 * 1024;
  cfg.traffic.tx_depth = 2;
  Orchestrator::Options options;
  options.num_dumpers = 3;
  options.dumper_options.per_packet_service = 80;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_TRUE(result.integrity.ok());
  EXPECT_EQ(result.flows[0].completed(), 200u);
  EXPECT_EQ(result.flows[1].completed(), 200u);
  // 12800 data packets + ACKs, all mirrored and reconstructed.
  EXPECT_GT(result.trace.size(), 13000u);
}

}  // namespace
}  // namespace lumina
