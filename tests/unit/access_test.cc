// Tests for remote-access protection: rkey validation and memory-region
// bounds on Write, Read, and atomic requests, with the fatal
// NAK-remote-access path back to the requester.
#include <gtest/gtest.h>

#include "rnic/rnic.h"

namespace lumina {
namespace {

class PassthroughWire : public Node {
 public:
  explicit PassthroughWire(Simulator* sim)
      : port0_(sim, this, 0), port1_(sim, this, 1) {}
  void handle_packet(int in_port, Packet pkt) override {
    const auto view = parse_roce(pkt);
    if (view) log.push_back(*view);
    (in_port == 0 ? port1_ : port0_).send(std::move(pkt));
  }
  Port& port0() { return port0_; }
  Port& port1() { return port1_; }
  std::vector<RoceView> log;

 private:
  Port port0_;
  Port port1_;
};

class AccessTest : public ::testing::Test {
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
    rq = req->create_qp({});
    rs = resp->create_qp({});
    QpEndpointInfo req_info{Ipv4Address::from_octets(10, 0, 0, 1), rq->qpn(),
                            1000, 0x1000, 1 << 20, 0x11};
    // Responder MR: [0x2000, 0x2000 + 1 MiB), rkey 0x22.
    QpEndpointInfo resp_info{Ipv4Address::from_octets(10, 0, 0, 2), rs->qpn(),
                             5000, 0x2000, 1 << 20, 0x22};
    rq->connect(req_info, resp_info);
    rs->connect(resp_info, req_info);
    rq->set_completion_callback(
        [this](const WorkCompletion& wc) { completions.push_back(wc); });
  }

  int access_naks_on_wire() const {
    int count = 0;
    for (const auto& v : wire.log) {
      if (v.bth.opcode == IbOpcode::kAcknowledge && v.aeth &&
          v.aeth->is_access_nak()) {
        ++count;
      }
    }
    return count;
  }

  Simulator sim;
  PassthroughWire wire{&sim};
  std::unique_ptr<Rnic> req;
  std::unique_ptr<Rnic> resp;
  QueuePair* rq = nullptr;
  QueuePair* rs = nullptr;
  std::vector<WorkCompletion> completions;
};

TEST_F(AccessTest, ValidWriteWithinRegionSucceeds) {
  rq->post_send({1, RdmaVerb::kWrite, 4096, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
  EXPECT_EQ(access_naks_on_wire(), 0);
}

TEST_F(AccessTest, WrongRkeyOnWriteIsFatal) {
  rq->post_send({1, RdmaVerb::kWrite, 4096, 0x2000, 0xBAD});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kRemoteAccessError);
  EXPECT_TRUE(rq->in_error());
  EXPECT_EQ(resp->counters().remote_access_errors, 1u);
  EXPECT_EQ(access_naks_on_wire(), 1);
}

TEST_F(AccessTest, OutOfBoundsWriteIsFatal) {
  // Starts inside the MR but runs past its end.
  rq->post_send({1, RdmaVerb::kWrite, 8192, 0x2000 + (1 << 20) - 1024, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(resp->counters().remote_access_errors, 1u);
}

TEST_F(AccessTest, WriteBelowRegionBaseIsFatal) {
  rq->post_send({1, RdmaVerb::kWrite, 1024, 0x1F00, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kRemoteAccessError);
}

TEST_F(AccessTest, WrongRkeyOnReadIsFatal) {
  rq->post_send({1, RdmaVerb::kRead, 4096, 0x2000, 0xBAD});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(resp->counters().remote_access_errors, 1u);
  // No read responses flowed.
  for (const auto& v : wire.log) {
    EXPECT_FALSE(is_read_response(v.bth.opcode));
  }
}

TEST_F(AccessTest, WrongRkeyOnAtomicIsFatal) {
  WorkRequest wr;
  wr.wr_id = 1;
  wr.verb = RdmaVerb::kFetchAdd;
  wr.length = 8;
  wr.remote_addr = 0x2000;
  wr.rkey = 0xBAD;
  wr.compare_add = 1;
  rq->post_send(wr);
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(rs->atomic_memory(0x2000), 0u);  // never executed
}

TEST_F(AccessTest, SubsequentWorkFlushesAfterAccessError) {
  rq->post_send({1, RdmaVerb::kWrite, 1024, 0x2000, 0xBAD});
  rq->post_send({2, RdmaVerb::kWrite, 1024, 0x2000, 0x22});
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(completions[1].status, WcStatus::kFlushed);
}

TEST_F(AccessTest, SendIsNotSubjectToRkeyChecks) {
  // Send places data into posted receive buffers; no RETH, no rkey.
  rs->post_recv(0);
  rq->post_send({1, RdmaVerb::kSendRecv, 2048, 0, 0xBAD});
  sim.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].status, WcStatus::kSuccess);
}

}  // namespace
}  // namespace lumina
