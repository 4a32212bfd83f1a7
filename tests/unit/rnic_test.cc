// Unit tests for the RNIC model: QP state machines, Go-Back-N recovery,
// retransmission timers, DCQCN NP/RP wiring, counters, and error states.
//
// Two Rnics are wired through a tiny programmable "wire" node that can
// observe, drop, or mark packets — isolating transport behavior from the
// full injector/orchestrator stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "rnic/rnic.h"

namespace lumina {
namespace {

const Ipv4Address kReqIp = Ipv4Address::from_octets(10, 0, 0, 1);
const Ipv4Address kRespIp = Ipv4Address::from_octets(10, 0, 0, 2);

/// A two-port middlebox: forwards 0<->1, applies an optional mutator that
/// may drop (return false) or transform packets, and logs everything.
class TestWire : public Node {
 public:
  explicit TestWire(Simulator* sim)
      : port0_(sim, this, 0), port1_(sim, this, 1) {}

  void handle_packet(int in_port, Packet pkt) override {
    const auto view = parse_roce(pkt);
    if (view) log.push_back(*view);
    if (mutate && !mutate(in_port, pkt)) return;  // dropped
    (in_port == 0 ? port1_ : port0_).send(std::move(pkt));
  }

  Port& port0() { return port0_; }
  Port& port1() { return port1_; }

  /// Returns false to drop. May mutate the packet in place.
  std::function<bool(int in_port, Packet&)> mutate;
  std::vector<RoceView> log;

 private:
  Port port0_;
  Port port1_;
};

class RnicTest : public ::testing::Test {
 protected:
  void build(NicType req_type, NicType resp_type,
             RoceParameters req_roce = {}, RoceParameters resp_roce = {}) {
    req = std::make_unique<Rnic>(&sim, "req", DeviceProfile::get(req_type),
                                 req_roce, MacAddress::from_u48(0xaa));
    resp = std::make_unique<Rnic>(&sim, "resp", DeviceProfile::get(resp_type),
                                  resp_roce, MacAddress::from_u48(0xbb));
    const double gbps = DeviceProfile::get(req_type).link_gbps;
    connect(req->port(), wire.port0(), LinkParams{gbps, 200});
    connect(resp->port(), wire.port1(), LinkParams{gbps, 200});
  }

  /// Creates and connects one QP pair; returns the requester-side QP.
  std::pair<QueuePair*, QueuePair*> make_qps(QpConfig cfg = {}) {
    QueuePair* rq = req->create_qp(cfg);
    QueuePair* rs = resp->create_qp(cfg);
    QpEndpointInfo req_info{kReqIp, rq->qpn(), 1000, 0x1000, 1 << 20, 0x11};
    QpEndpointInfo resp_info{kRespIp, rs->qpn(), 5000, 0x2000, 1 << 20, 0x22};
    rq->connect(req_info, resp_info);
    rs->connect(resp_info, req_info);
    return {rq, rs};
  }

  Simulator sim;
  TestWire wire{&sim};
  std::unique_ptr<Rnic> req;
  std::unique_ptr<Rnic> resp;
};

TEST_F(RnicTest, WriteMessageCompletesWithAck) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps();
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });

  rq->post_send({1, RdmaVerb::kWrite, 4096, 0x2000, 0x22});
  sim.run();

  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].wr_id, 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  // 4 data packets + 1 ACK crossed the wire.
  int data = 0, acks = 0;
  for (const auto& v : wire.log) {
    if (is_data_opcode(v.bth.opcode)) ++data;
    if (v.bth.opcode == IbOpcode::kAcknowledge) ++acks;
  }
  EXPECT_EQ(data, 4);
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(req->counters().tx_packets, 4u);
  EXPECT_EQ(resp->counters().rx_packets, 4u);
}

TEST_F(RnicTest, WritePacketizationUsesCorrectOpcodes) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps(QpConfig{.mtu = 1024});
  rq->set_completion_callback([](const WorkCompletion&) {});
  rq->post_send({1, RdmaVerb::kWrite, 3000, 0x2000, 0x22});
  sim.run();
  std::vector<IbOpcode> data_opcodes;
  for (const auto& v : wire.log) {
    if (is_data_opcode(v.bth.opcode)) data_opcodes.push_back(v.bth.opcode);
  }
  ASSERT_EQ(data_opcodes.size(), 3u);
  EXPECT_EQ(data_opcodes[0], IbOpcode::kWriteFirst);
  EXPECT_EQ(data_opcodes[1], IbOpcode::kWriteMiddle);
  EXPECT_EQ(data_opcodes[2], IbOpcode::kWriteLast);
  // First packet carries the RETH; PSNs are consecutive from the IPSN.
  EXPECT_EQ(wire.log[0].reth->dma_len, 3000u);
  EXPECT_EQ(wire.log[0].bth.psn, 1000u);
  EXPECT_EQ(wire.log[1].bth.psn, 1001u);
}

TEST_F(RnicTest, SmallWriteUsesWriteOnly) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps();
  rq->post_send({1, RdmaVerb::kWrite, 512, 0x2000, 0x22});
  sim.run();
  ASSERT_FALSE(wire.log.empty());
  EXPECT_EQ(wire.log[0].bth.opcode, IbOpcode::kWriteOnly);
  EXPECT_TRUE(wire.log[0].bth.ack_req);
}

TEST_F(RnicTest, SendConsumesPostedReceives) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps();
  rs->post_recv(100);
  rs->post_recv(101);
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kSendRecv, 2048, 0, 0});
  rq->post_send({2, RdmaVerb::kSendRecv, 2048, 0, 0});
  sim.run();
  EXPECT_EQ(completions.size(), 2u);
  EXPECT_EQ(wire.log[0].bth.opcode, IbOpcode::kSendFirst);
}

TEST_F(RnicTest, ReadStreamsResponsesFromResponder) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps(QpConfig{.mtu = 1024});
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kRead, 5120, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  int requests = 0, responses = 0;
  for (const auto& v : wire.log) {
    if (v.bth.opcode == IbOpcode::kReadRequest) ++requests;
    if (is_read_response(v.bth.opcode)) ++responses;
  }
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(responses, 5);
  // Response PSNs echo the requester's PSN space.
  for (const auto& v : wire.log) {
    if (v.bth.opcode == IbOpcode::kReadRespFirst) {
      EXPECT_EQ(v.bth.psn, 1000u);
    }
  }
}

TEST_F(RnicTest, DroppedWritePacketRecoversViaNack) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps();
  int to_drop = 1;
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 0 && view && view->bth.psn == 1002 && to_drop-- > 0) {
      return false;  // drop the 3rd data packet once
    }
    return true;
  };
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kWrite, 8192, 0x2000, 0x22});
  sim.run();

  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  EXPECT_EQ(resp->counters().out_of_sequence, 1u);
  EXPECT_EQ(req->counters().packet_seq_err, 1u);
  EXPECT_GE(req->counters().retransmitted_packets, 1u);
  // NAK carries the expected PSN (1002).
  bool saw_nak = false;
  for (const auto& v : wire.log) {
    if (v.bth.opcode == IbOpcode::kAcknowledge && v.aeth && v.aeth->is_nak()) {
      saw_nak = true;
      EXPECT_EQ(v.bth.psn, 1002u);
    }
  }
  EXPECT_TRUE(saw_nak);
}

TEST_F(RnicTest, NackReactionDelayGovernsRecoveryTiming) {
  build(NicType::kCx4Lx, NicType::kCx4Lx);  // 200 us reaction
  auto [rq, rs] = make_qps();
  int to_drop = 1;
  Tick nak_seen = 0, retx_seen = 0;
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (!view) return true;
    if (in_port == 0 && view->bth.psn == 1002) {
      if (to_drop-- > 0) return false;
      if (retx_seen == 0) retx_seen = sim.now();
    }
    if (view->bth.opcode == IbOpcode::kAcknowledge && view->aeth &&
        view->aeth->is_nak() && nak_seen == 0) {
      nak_seen = sim.now();
    }
    return true;
  };
  rq->post_send({1, RdmaVerb::kWrite, 8192, 0x2000, 0x22});
  sim.run();
  ASSERT_GT(nak_seen, 0);
  ASSERT_GT(retx_seen, nak_seen);
  EXPECT_NEAR(static_cast<double>(retx_seen - nak_seen),
              static_cast<double>(200 * kMicrosecond),
              static_cast<double>(5 * kMicrosecond));
}

TEST_F(RnicTest, TailDropRecoversViaRtoAndCountsTimeout) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps(QpConfig{.timeout = 10});  // ~4.2 ms RTO
  int to_drop = 1;
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 0 && view && view->bth.opcode == IbOpcode::kWriteLast &&
        to_drop-- > 0) {
      return false;
    }
    return true;
  };
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kWrite, 4096, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  EXPECT_EQ(req->counters().local_ack_timeout_err, 1u);
  EXPECT_GT(completions[0].completed_at, ib_timeout_to_rto(10));
}

TEST_F(RnicTest, RetryExhaustionMovesQpToError) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps(QpConfig{.timeout = 8, .retry_cnt = 2});
  wire.mutate = [&](int in_port, Packet&) {
    return in_port != 0;  // black-hole everything from the requester
  };
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kRetryExceeded);
  EXPECT_TRUE(rq->in_error());
  EXPECT_EQ(req->counters().local_ack_timeout_err, 3u);  // 1 + retry_cnt

  // Posting on an errored QP flushes immediately.
  rq->post_send({2, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[1].status, WcStatus::kFlushed);
}

TEST_F(RnicTest, DuplicateDataReacknowledged) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps(QpConfig{.timeout = 8});
  // Drop the ACK so the sender retransmits a message the responder already
  // has; the responder must count the duplicate and re-acknowledge.
  int acks_to_drop = 1;
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 1 && view &&
        view->bth.opcode == IbOpcode::kAcknowledge && view->aeth &&
        view->aeth->is_ack() && acks_to_drop-- > 0) {
      return false;
    }
    return true;
  };
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  EXPECT_GE(resp->counters().duplicate_request, 1u);
}

TEST_F(RnicTest, EcnMarkedDataTriggersCnpAndRateCut) {
  RoceParameters roce;
  roce.min_time_between_cnps = 4 * kMicrosecond;
  build(NicType::kCx5, NicType::kCx5, roce, roce);
  auto [rq, rs] = make_qps();
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 0 && view && is_data_opcode(view->bth.opcode)) {
      set_ecn_ce(pkt);  // congestion upstream
    }
    return true;
  };
  rq->post_send({1, RdmaVerb::kWrite, 16 * 1024, 0x2000, 0x22});
  // Pause shortly after the first CNPs land, before the DCQCN timers can
  // recover the rate, to observe the throttled state.
  sim.run_until(4 * kMicrosecond);
  EXPECT_LT(req->rp_for(*rq).rate_gbps(), 100.0);
  sim.run();
  EXPECT_GE(resp->counters().np_ecn_marked_roce_packets, 16u);
  EXPECT_GE(resp->counters().np_cnp_sent, 1u);
  EXPECT_GE(req->counters().rp_cnp_handled, 1u);
}

TEST_F(RnicTest, E810CnpCounterStuckButCnpsFlow) {
  build(NicType::kE810, NicType::kE810);
  auto [rq, rs] = make_qps();
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 0 && view && is_data_opcode(view->bth.opcode)) {
      set_ecn_ce(pkt);
    }
    return true;
  };
  rq->post_send({1, RdmaVerb::kWrite, 16 * 1024, 0x2000, 0x22});
  sim.run();
  int cnps_on_wire = 0;
  for (const auto& v : wire.log) {
    if (v.bth.opcode == IbOpcode::kCnp) ++cnps_on_wire;
  }
  EXPECT_GE(cnps_on_wire, 1);
  EXPECT_EQ(resp->counters().np_cnp_sent, 0u);  // §6.2.4 bug
  EXPECT_GE(req->counters().rp_cnp_handled, 1u);  // RP side still works
}

TEST_F(RnicTest, ControlFramesLeaveBeforeQueuedData) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps();
  rq->set_completion_callback([](const WorkCompletion&) {});
  rq->post_send({1, RdmaVerb::kWrite, 64 * 1024, 0x2000, 0x22});
  // Mid-transfer, with data still waiting, queue three control frames.
  sim.schedule_at(2 * kMicrosecond, [&, rq = rq] {
    for (const std::uint32_t psn : {7u, 8u, 9u}) {
      RocePacketSpec spec = req->packet_spec_for(*rq);
      spec.opcode = IbOpcode::kCnp;
      spec.psn = psn;
      req->enqueue_control(build_roce_packet(spec));
    }
  });
  sim.run();

  // The requester's frames in wire order: the three control frames leave
  // back to back, in order, as soon as the frame on the wire finishes.
  std::vector<std::string> sent;
  for (const auto& v : wire.log) {
    if (v.bth.dest_qpn != rs->qpn()) continue;
    sent.push_back(v.bth.opcode == IbOpcode::kCnp
                       ? "cnp" + std::to_string(v.bth.psn)
                       : "data");
  }
  const auto first = std::find(sent.begin(), sent.end(), "cnp7");
  ASSERT_NE(first, sent.end());
  ASSERT_NE(first, sent.begin());
  ASSERT_LT(first + 3, sent.end());
  EXPECT_EQ(*(first - 1), "data");
  EXPECT_EQ(*(first + 1), "cnp8");
  EXPECT_EQ(*(first + 2), "cnp9");
  EXPECT_EQ(*(first + 3), "data");
}

TEST_F(RnicTest, CorruptedPacketDroppedByIcrcCheck) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps(QpConfig{.timeout = 8});
  int to_corrupt = 1;
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 0 && view && view->bth.psn == 1001 && to_corrupt-- > 0) {
      corrupt_payload_bit(pkt);
    }
    return true;
  };
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kWrite, 4096, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  EXPECT_EQ(resp->counters().icrc_error_packets, 1u);
}

TEST_F(RnicTest, MigReqBitFollowsDeviceProfile) {
  build(NicType::kE810, NicType::kCx5);
  auto [rq, rs] = make_qps();
  rq->post_send({1, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();
  for (const auto& v : wire.log) {
    if (is_data_opcode(v.bth.opcode)) {
      EXPECT_FALSE(v.bth.mig_req);  // E810 sends MigReq=0 (§6.2.3)
    }
  }
}

TEST_F(RnicTest, AdaptiveRetransTimeoutsBelowConfiguredMinimum) {
  RoceParameters roce;
  roce.adaptive_retrans = true;
  build(NicType::kCx6Dx, NicType::kCx6Dx, roce, roce);
  auto [rq, rs] = make_qps(
      QpConfig{.timeout = 14, .retry_cnt = 7, .adaptive_retrans = true});
  int drops = 2;  // drop the original and the first retransmission
  std::vector<Tick> tx_times;
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 0 && view && is_data_opcode(view->bth.opcode)) {
      tx_times.push_back(sim.now());
      if (drops-- > 0) return false;
    }
    return true;
  };
  rq->post_send({1, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();
  ASSERT_GE(tx_times.size(), 3u);
  const Tick first_rto = tx_times[1] - tx_times[0];
  EXPECT_LT(first_rto, ib_timeout_to_rto(14));  // below the configured min
  EXPECT_GT(first_rto, kMillisecond);           // but in the ms range
}

TEST_F(RnicTest, NonAdaptiveRtoMatchesIbSpec) {
  build(NicType::kCx6Dx, NicType::kCx6Dx);
  auto [rq, rs] = make_qps(QpConfig{.timeout = 12, .retry_cnt = 7});
  int drops = 1;
  std::vector<Tick> tx_times;
  wire.mutate = [&](int in_port, Packet& pkt) {
    const auto view = parse_roce(pkt);
    if (in_port == 0 && view && is_data_opcode(view->bth.opcode)) {
      tx_times.push_back(sim.now());
      if (drops-- > 0) return false;
    }
    return true;
  };
  rq->post_send({1, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();
  ASSERT_GE(tx_times.size(), 2u);
  EXPECT_NEAR(static_cast<double>(tx_times[1] - tx_times[0]),
              static_cast<double>(ib_timeout_to_rto(12)),
              static_cast<double>(50 * kMicrosecond));
}

TEST_F(RnicTest, UnknownQpnPacketsIgnored) {
  build(NicType::kCx5, NicType::kCx5);
  make_qps();
  // Redirect a packet to a nonexistent QPN mid-flight.
  wire.mutate = [&](int in_port, Packet& pkt) {
    (void)in_port;
    (void)pkt;
    return true;
  };
  RocePacketSpec spec;
  spec.src_ip = kReqIp;
  spec.dst_ip = kRespIp;
  spec.dest_qpn = 0x123456;  // no such QP
  spec.opcode = IbOpcode::kWriteOnly;
  spec.payload_len = 64;
  req->port().send(build_roce_packet(spec));
  sim.run();
  EXPECT_EQ(resp->counters().rx_packets, 1u);  // received but not delivered
}

TEST_F(RnicTest, SendWithoutRecvDrawsRnrNakAndRecovers) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps();
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  // No receive posted yet: the responder is not ready.
  rq->post_send({1, RdmaVerb::kSendRecv, 2048, 0, 0});
  // A buffer shows up shortly after the first RNR NAK round-trips.
  sim.schedule_at(100 * kMicrosecond, [rs = rs] { rs->post_recv(0); });
  sim.run();

  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  EXPECT_GE(resp->counters().rnr_nak_sent, 1u);
  EXPECT_GE(req->counters().rnr_nak_received, 1u);
  // The retry waited at least the advertised RNR timer (code 12: 0.64 ms).
  EXPECT_GT(completions[0].completed_at, rnr_timer_to_wait(12));
  bool saw_rnr = false;
  for (const auto& v : wire.log) {
    if (v.bth.opcode == IbOpcode::kAcknowledge && v.aeth &&
        v.aeth->is_rnr_nak()) {
      saw_rnr = true;
      EXPECT_EQ(v.aeth->rnr_timer_code(), 12);
    }
  }
  EXPECT_TRUE(saw_rnr);
}

TEST_F(RnicTest, RnrRetriesExhaustIfReceiverNeverReady) {
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps(QpConfig{.rnr_retry = 2, .rnr_timer_code = 1});
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kSendRecv, 1024, 0, 0});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kRnrRetryExceeded);
  EXPECT_TRUE(rq->in_error());
  EXPECT_EQ(req->counters().rnr_nak_received, 3u);  // initial + 2 retries
}

TEST_F(RnicTest, MixedWriteAndReadWqesOnOneQp) {
  // §3.2: verb combinations produce bi-directional data on one QP.
  build(NicType::kCx5, NicType::kCx5);
  auto [rq, rs] = make_qps();
  std::vector<WorkCompletion> completions;
  rq->set_completion_callback(
      [&](const WorkCompletion& wc) { completions.push_back(wc); });
  rq->post_send({1, RdmaVerb::kWrite, 2048, 0x2000, 0x22});
  rq->post_send({2, RdmaVerb::kRead, 3072, 0x2000, 0x22});
  rq->post_send({3, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();

  ASSERT_EQ(completions.size(), 3u);
  for (const auto& wc : completions) {
    EXPECT_EQ(wc.status, WcStatus::kSuccess);
  }
  int writes = 0, read_reqs = 0, read_resps = 0;
  for (const auto& v : wire.log) {
    if (is_write(v.bth.opcode)) ++writes;
    if (v.bth.opcode == IbOpcode::kReadRequest) ++read_reqs;
    if (is_read_response(v.bth.opcode)) ++read_resps;
  }
  EXPECT_EQ(writes, 3);      // 2 + 1 packets
  EXPECT_EQ(read_reqs, 1);
  EXPECT_EQ(read_resps, 3);  // 3072 B at MTU 1024
}

TEST_F(RnicTest, QpnsAreUniquePerNic) {
  build(NicType::kCx5, NicType::kCx5);
  QueuePair* a = req->create_qp({});
  QueuePair* b = req->create_qp({});
  EXPECT_NE(a->qpn(), b->qpn());
  EXPECT_EQ(req->find_qp(a->qpn()), a);
  EXPECT_EQ(req->find_qp(b->qpn()), b);
  EXPECT_EQ(req->find_qp(0xdead), nullptr);
}

TEST_F(RnicTest, QpPointersStayValidAsQpsAreAdded) {
  // Every pointer create_qp hands out must survive the QPs created after
  // it: the host layer keeps them for the NIC's lifetime.
  build(NicType::kCx6Dx, NicType::kCx6Dx);
  constexpr std::size_t kN = 1000;
  std::vector<QueuePair*> ptrs;
  for (std::size_t i = 0; i < kN; ++i) ptrs.push_back(req->create_qp({}));
  EXPECT_EQ(req->qp_count(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(req->find_qp(ptrs[i]->qpn()), ptrs[i]);
    EXPECT_EQ(ptrs[i]->slot(), i);
  }
}

TEST_F(RnicTest, PumpRoundRobinsQpsWithinAClass) {
  // Five QPs, created interleaved across two equal-weight ETS classes on a
  // work-conserving NIC, each with one 4-packet Write. Within a class the
  // egress pump must serve the class's QPs in creation order, cyclically.
  build(NicType::kCx5, NicType::kCx5);
  req->configure_ets({50, 50});
  const std::vector<int> tc_of = {0, 1, 0, 1, 0};
  std::vector<QueuePair*> requesters;
  std::vector<std::uint32_t> responder_qpns;
  for (const int tc : tc_of) {
    auto [rq, rs] = make_qps(QpConfig{.mtu = 1024, .traffic_class = tc});
    requesters.push_back(rq);
    responder_qpns.push_back(rs->qpn());
  }
  for (QueuePair* rq : requesters) {
    rq->post_send({1, RdmaVerb::kWrite, 4096, 0x2000, 0x22});
  }
  sim.run();

  // Data frames in wire order, as creation indices, split by class.
  std::vector<std::vector<std::size_t>> served(2);
  for (const auto& v : wire.log) {
    if (!is_data_opcode(v.bth.opcode)) continue;
    const auto it = std::find(responder_qpns.begin(), responder_qpns.end(),
                              v.bth.dest_qpn);
    ASSERT_NE(it, responder_qpns.end());
    const auto qp = static_cast<std::size_t>(it - responder_qpns.begin());
    served[static_cast<std::size_t>(tc_of[qp])].push_back(qp);
  }
  const std::vector<std::vector<std::size_t>> members = {{0, 2, 4}, {1, 3}};
  for (std::size_t tc = 0; tc < members.size(); ++tc) {
    ASSERT_EQ(served[tc].size(), 4 * members[tc].size()) << "class " << tc;
    for (std::size_t k = 0; k < served[tc].size(); ++k) {
      EXPECT_EQ(served[tc][k], members[tc][k % members[tc].size()])
          << "class " << tc << ", frame " << k;
    }
  }
}

}  // namespace
}  // namespace lumina
