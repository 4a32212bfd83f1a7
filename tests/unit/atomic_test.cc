// Tests for RC atomic operations (FetchAdd / CmpSwap): packet formats,
// execution semantics, response caching on retransmission, and the
// end-to-end path through the orchestrated testbed.
#include <gtest/gtest.h>

#include "orchestrator/orchestrator.h"
#include "rnic/rnic.h"

namespace lumina {
namespace {

// ---------------------------------------------------------------------------
// Packet format
// ---------------------------------------------------------------------------

TEST(AtomicPacket, FetchAddRoundTrips) {
  RocePacketSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kFetchAdd;
  spec.psn = 77;
  spec.atomic_eth = AtomicEth{0xdead0000, 0x42, 5, 0};
  const Packet pkt = build_roce_packet(spec);
  const auto view = parse_roce(pkt);
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->atomic_eth.has_value());
  EXPECT_EQ(view->atomic_eth->vaddr, 0xdead0000u);
  EXPECT_EQ(view->atomic_eth->rkey, 0x42u);
  EXPECT_EQ(view->atomic_eth->swap_add, 5u);
  EXPECT_TRUE(verify_icrc(pkt));
  EXPECT_EQ(view->payload_len, 0u);
}

TEST(AtomicPacket, AtomicAckCarriesOriginalValue) {
  RocePacketSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.opcode = IbOpcode::kAtomicAck;
  spec.aeth = Aeth::ack(3);
  spec.atomic_ack_eth = AtomicAckEth{0x1122334455667788ULL};
  const auto view = parse_roce(build_roce_packet(spec));
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->aeth.has_value());
  ASSERT_TRUE(view->atomic_ack_eth.has_value());
  EXPECT_EQ(view->atomic_ack_eth->original, 0x1122334455667788ULL);
}

TEST(AtomicPacket, AtomicsAreNotInjectableDataOpcodes) {
  // §3.3: the injector targets data packets; atomics, like read requests,
  // are request-class packets the event table does not match.
  EXPECT_FALSE(is_data_opcode(IbOpcode::kFetchAdd));
  EXPECT_FALSE(is_data_opcode(IbOpcode::kCmpSwap));
  EXPECT_FALSE(is_data_opcode(IbOpcode::kAtomicAck));
  EXPECT_TRUE(is_atomic(IbOpcode::kFetchAdd));
  EXPECT_FALSE(is_atomic(IbOpcode::kAcknowledge));
}

// ---------------------------------------------------------------------------
// QP semantics (direct wiring; see rnic_test.cc for the harness pattern)
// ---------------------------------------------------------------------------

class AtomicWire : public Node {
 public:
  explicit AtomicWire(Simulator* sim)
      : port0_(sim, this, 0), port1_(sim, this, 1) {}
  void handle_packet(int in_port, Packet pkt) override {
    const auto view = parse_roce(pkt);
    if (view && view->bth.opcode == IbOpcode::kAtomicAck &&
        acks_to_drop > 0) {
      --acks_to_drop;
      return;
    }
    (in_port == 0 ? port1_ : port0_).send(std::move(pkt));
  }
  Port& port0() { return port0_; }
  Port& port1() { return port1_; }
  int acks_to_drop = 0;

 private:
  Port port0_;
  Port port1_;
};

class AtomicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    req = std::make_unique<Rnic>(&sim, "req",
                                 DeviceProfile::get(NicType::kCx5),
                                 RoceParameters{}, MacAddress::from_u48(0xaa));
    resp = std::make_unique<Rnic>(&sim, "resp",
                                  DeviceProfile::get(NicType::kCx5),
                                  RoceParameters{}, MacAddress::from_u48(0xbb));
    connect(req->port(), wire.port0(), LinkParams{100.0, 200});
    connect(resp->port(), wire.port1(), LinkParams{100.0, 200});
    rq = req->create_qp(QpConfig{.timeout = 10});
    rs = resp->create_qp(QpConfig{.timeout = 10});
    QpEndpointInfo req_info{Ipv4Address::from_octets(10, 0, 0, 1), rq->qpn(),
                            1000, 0x1000, 1 << 20, 0x11};
    QpEndpointInfo resp_info{Ipv4Address::from_octets(10, 0, 0, 2), rs->qpn(),
                             5000, 0x2000, 1 << 20, 0x22};
    rq->connect(req_info, resp_info);
    rs->connect(resp_info, req_info);
    rq->set_completion_callback(
        [this](const WorkCompletion& wc) { completions.push_back(wc); });
  }

  WorkRequest fetch_add(std::uint64_t wr_id, std::uint64_t add) {
    WorkRequest wr;
    wr.wr_id = wr_id;
    wr.verb = RdmaVerb::kFetchAdd;
    wr.length = 8;
    wr.remote_addr = 0x2000;
    wr.rkey = 0x22;
    wr.compare_add = add;
    return wr;
  }

  Simulator sim;
  AtomicWire wire{&sim};
  std::unique_ptr<Rnic> req;
  std::unique_ptr<Rnic> resp;
  QueuePair* rq = nullptr;
  QueuePair* rs = nullptr;
  std::vector<WorkCompletion> completions;
};

TEST_F(AtomicTest, FetchAddAccumulatesAndReturnsOriginals) {
  rq->post_send(fetch_add(1, 5));
  rq->post_send(fetch_add(2, 7));
  rq->post_send(fetch_add(3, 1));
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].atomic_original, 0u);
  EXPECT_EQ(completions[1].atomic_original, 5u);
  EXPECT_EQ(completions[2].atomic_original, 12u);
  EXPECT_EQ(rs->atomic_memory(0x2000), 13u);
  for (const auto& wc : completions) {
    EXPECT_EQ(wc.status, WcStatus::kSuccess);
  }
}

TEST_F(AtomicTest, CmpSwapSwapsOnlyOnMatch) {
  rs->set_atomic_memory(0x2000, 42);
  WorkRequest wr;
  wr.verb = RdmaVerb::kCmpSwap;
  wr.length = 8;
  wr.remote_addr = 0x2000;
  wr.rkey = 0x22;

  wr.wr_id = 1;
  wr.compare_add = 42;  // matches -> swap
  wr.swap = 100;
  rq->post_send(wr);
  wr.wr_id = 2;
  wr.compare_add = 42;  // stale compare -> no swap
  wr.swap = 999;
  rq->post_send(wr);
  sim.run();

  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].atomic_original, 42u);
  EXPECT_EQ(completions[1].atomic_original, 100u);  // reports current value
  EXPECT_EQ(rs->atomic_memory(0x2000), 100u);       // second swap refused
}

TEST_F(AtomicTest, LostAckReplaysCachedResultWithoutReExecuting) {
  wire.acks_to_drop = 1;  // the first AtomicAck vanishes
  rq->post_send(fetch_add(1, 5));
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  // The RTO retransmitted the request; the responder must replay the
  // cached original instead of adding twice.
  EXPECT_EQ(completions[0].atomic_original, 0u);
  EXPECT_EQ(rs->atomic_memory(0x2000), 5u);  // exactly once
  EXPECT_GE(resp->counters().duplicate_request, 1u);
  EXPECT_GE(req->counters().local_ack_timeout_err, 1u);
}

TEST_F(AtomicTest, AtomicsInterleaveWithWrites) {
  rq->post_send({10, RdmaVerb::kWrite, 4096, 0x2000, 0x22});
  rq->post_send(fetch_add(11, 3));
  rq->post_send({12, RdmaVerb::kWrite, 2048, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  for (const auto& wc : completions) {
    EXPECT_EQ(wc.status, WcStatus::kSuccess);
  }
  EXPECT_EQ(rs->atomic_memory(0x2000), 3u);
}

// ---------------------------------------------------------------------------
// End to end through the orchestrated testbed
// ---------------------------------------------------------------------------

TEST(AtomicEndToEnd, FetchAddVerbFromConfig) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kFetchAdd;
  cfg.traffic.num_msgs_per_qp = 10;  // ten atomic increments
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.finished);
  EXPECT_TRUE(result.integrity.ok());
  EXPECT_EQ(result.flows[0].completed(), 10u);
  // The responder-side counter reached 10.
  EXPECT_EQ(orch.generator().responder_qp(0)->atomic_memory(
                result.connections[0].responder.buffer_addr),
            10u);
  int atomics = 0, atomic_acks = 0;
  for (const auto& p : result.trace) {
    if (is_atomic(p.view.bth.opcode)) ++atomics;
    if (p.view.bth.opcode == IbOpcode::kAtomicAck) ++atomic_acks;
  }
  EXPECT_EQ(atomics, 10);
  EXPECT_EQ(atomic_acks, 10);
}

TEST(AtomicEndToEnd, CmpSwapVerbParsesFromYaml) {
  const TrafficConfig cfg =
      load_traffic_config(parse_yaml("rdma-verb: cmpswap\n"));
  EXPECT_EQ(cfg.verb, RdmaVerb::kCmpSwap);
  EXPECT_EQ(parse_verb("fetchadd"), RdmaVerb::kFetchAdd);
}

}  // namespace
}  // namespace lumina
