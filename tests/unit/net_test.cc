// Unit tests for the network substrate: ports, links, serialization and
// propagation timing, egress queueing and drops.
#include <gtest/gtest.h>

#include <deque>

#include "net/node.h"
#include "net/packet_fifo.h"
#include "packet/packet_arena.h"
#include "packet/roce_packet.h"

namespace lumina {
namespace {

Packet make_packet(std::uint32_t payload) {
  RocePacketSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kSendOnly;
  spec.payload_len = payload;
  return build_roce_packet(spec);
}

/// A node that records every arrival with its timestamp.
class SinkNode : public Node {
 public:
  explicit SinkNode(Simulator* sim) : sim_(sim), port_(sim, this, 0) {}
  void handle_packet(int, Packet pkt) override {
    arrivals.push_back({sim_->now(), pkt.size()});
  }
  Port& port() { return port_; }

  struct Arrival {
    Tick when;
    std::size_t bytes;
  };
  std::vector<Arrival> arrivals;

 private:
  Simulator* sim_;
  Port port_;
};

class NetTest : public ::testing::Test {
 protected:
  Simulator sim;
  SinkNode a{&sim};
  SinkNode b{&sim};
};

TEST_F(NetTest, DeliversAfterSerializationPlusPropagation) {
  connect(a.port(), b.port(), LinkParams{100.0, 500});
  const Packet pkt = make_packet(1024);
  const Tick expected_ser =
      static_cast<Tick>(static_cast<double>(pkt.wire_size()) * 8.0 / 100.0);
  a.port().send(pkt);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].when, expected_ser + 500);
}

TEST_F(NetTest, SlowerLinkTakesLonger) {
  SinkNode c{&sim}, d{&sim};
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  connect(c.port(), d.port(), LinkParams{40.0, 0});
  a.port().send(make_packet(1024));
  c.port().send(make_packet(1024));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  ASSERT_EQ(d.arrivals.size(), 1u);
  EXPECT_NEAR(static_cast<double>(d.arrivals[0].when),
              static_cast<double>(b.arrivals[0].when) * 2.5, 2.0);
}

TEST_F(NetTest, BackToBackPacketsSerializeSequentially) {
  connect(a.port(), b.port(), LinkParams{100.0, 100});
  const Packet pkt = make_packet(1024);
  const Tick ser =
      static_cast<Tick>(static_cast<double>(pkt.wire_size()) * 8.0 / 100.0);
  for (int i = 0; i < 5; ++i) a.port().send(pkt);
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.arrivals[static_cast<std::size_t>(i)].when,
              ser * (i + 1) + 100);
  }
}

TEST_F(NetTest, FullDuplexDirectionsDoNotInterfere) {
  connect(a.port(), b.port(), LinkParams{100.0, 50});
  a.port().send(make_packet(1024));
  b.port().send(make_packet(1024));
  sim.run();
  ASSERT_EQ(a.arrivals.size(), 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals[0].when, b.arrivals[0].when);
}

TEST_F(NetTest, EgressOverflowDropsTail) {
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  a.port().set_queue_byte_cap(3000);  // fits ~2 packets of ~1100 B
  for (int i = 0; i < 10; ++i) a.port().send(make_packet(1024));
  sim.run();
  EXPECT_LT(b.arrivals.size(), 10u);
  EXPECT_GE(b.arrivals.size(), 2u);
  EXPECT_EQ(a.port().counters().drops, 10u - b.arrivals.size());
  EXPECT_EQ(a.port().counters().tx_packets, b.arrivals.size());
}

TEST_F(NetTest, OverflowHighWaterMarkStopsAtTheCap) {
  // Flood far past the cap: the FIFO's high-water mark must reflect what
  // was actually queued — bounded by the byte cap, not by the offered load
  // — and every packet beyond it must land in `drops`.
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(1024);
  a.port().set_queue_byte_cap(4 * pkt.size());
  for (int i = 0; i < 32; ++i) a.port().send(pkt);
  sim.run();
  const PortCounters& c = a.port().counters();
  EXPECT_GT(c.drops, 0u);
  EXPECT_EQ(c.drops + c.tx_packets, 32u);
  EXPECT_LE(c.max_queued_bytes, 4 * pkt.size());
  // The mark is a real high-water mark: at least one full burst fit.
  EXPECT_GE(c.max_queued_bytes, 3 * pkt.size());
  // Dropped packets never occupied the queue, so the mark is unchanged by
  // a second overflowing burst of the same shape.
  const std::size_t mark = c.max_queued_bytes;
  for (int i = 0; i < 32; ++i) a.port().send(pkt);
  sim.run();
  EXPECT_EQ(a.port().counters().max_queued_bytes, mark);
}

TEST_F(NetTest, HighWaterMarkTracksPeakWithoutOverflow) {
  // Below the cap the mark equals the largest backlog ever held: the full
  // burst minus the packet being serialized is queued at its peak.
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(1024);
  for (int i = 0; i < 6; ++i) a.port().send(pkt);
  sim.run();
  const PortCounters& c = a.port().counters();
  EXPECT_EQ(c.drops, 0u);
  EXPECT_EQ(c.tx_packets, 6u);
  EXPECT_EQ(c.max_queued_bytes, 5 * pkt.size());
}

TEST_F(NetTest, CountersTrackTraffic) {
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(512);
  a.port().send(pkt);
  a.port().send(pkt);
  sim.run();
  EXPECT_EQ(a.port().counters().tx_packets, 2u);
  EXPECT_EQ(a.port().counters().tx_bytes, 2 * pkt.size());
  EXPECT_EQ(b.port().counters().rx_packets, 2u);
  EXPECT_EQ(b.port().counters().rx_bytes, 2 * pkt.size());
  EXPECT_EQ(a.port().counters().drops, 0u);
}

TEST_F(NetTest, DrainedCallbackFiresWhenIdle) {
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  int drained = 0;
  a.port().set_drained_callback([&] { ++drained; });
  a.port().send(make_packet(64));
  a.port().send(make_packet(64));
  sim.run();
  EXPECT_EQ(drained, 1);  // queue emptied once
  EXPECT_TRUE(a.port().idle());
}

TEST_F(NetTest, LinkDownDropsReclaimsAndResumesWithTheNextFrame) {
  PacketArena arena;
  PacketArena::Scope scope(&arena);
  connect(a.port(), b.port(), LinkParams{100.0, 0});
  a.port().send(make_packet(100));  // serializing: the wire holds it
  a.port().send(make_packet(200));
  a.port().send(make_packet(300));
  const std::uint64_t recycled = arena.recycled();
  EXPECT_EQ(a.port().set_link_down(/*drop_queued=*/true), 2u);
  EXPECT_EQ(a.port().counters().drops, 2u);
  EXPECT_EQ(a.port().queued_bytes(), 0u);
  EXPECT_EQ(arena.recycled(), recycled + 2);

  const Packet next = make_packet(400);
  a.port().send(next);  // queued behind the down link
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);  // only the frame already on the wire

  a.port().set_link_up();
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[1].bytes, next.size());
  EXPECT_EQ(a.port().counters().tx_packets, 2u);
}

TEST_F(NetTest, UnwiredPortBlackholes) {
  a.port().send(make_packet(64));  // no peer attached
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
}

/// A one-byte frame carrying `tag`, so FIFO order is visible.
Packet tagged(std::uint8_t tag) {
  Packet pkt;
  pkt.bytes = {tag};
  return pkt;
}

TEST(PacketFifo, KeepsOrderAcrossWraparound) {
  PacketFifo fifo;
  std::uint8_t next_in = 0;
  std::uint8_t next_out = 0;
  // Pushes run ahead of pops by at most five, so the head laps the ring
  // many times without growing it.
  for (int round = 0; round < 40; ++round) {
    while (fifo.size() < 5) fifo.push_back(tagged(next_in++));
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(fifo.pop_front().bytes[0], next_out++);
    }
  }
  while (!fifo.empty()) EXPECT_EQ(fifo.pop_front().bytes[0], next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(fifo.capacity(), 8u);
}

TEST(PacketFifo, KeepsOrderAcrossGrowthWhileWrappedAndKeepsCapacity) {
  PacketFifo fifo;
  std::uint8_t next_in = 0;
  std::uint8_t next_out = 0;
  for (int i = 0; i < 6; ++i) fifo.push_back(tagged(next_in++));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fifo.pop_front().bytes[0], next_out++);
  }
  // Fill the ring across its end, then push once more: it doubles while
  // its live range wraps.
  while (fifo.size() < fifo.capacity()) fifo.push_back(tagged(next_in++));
  ASSERT_EQ(fifo.capacity(), 8u);
  fifo.push_back(tagged(next_in++));
  EXPECT_EQ(fifo.capacity(), 16u);
  EXPECT_EQ(fifo.size(), 9u);
  while (!fifo.empty()) EXPECT_EQ(fifo.pop_front().bytes[0], next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(fifo.capacity(), 16u);  // draining keeps the storage
}

class WireSizeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WireSizeTest, SerializationDelayScalesWithSize) {
  Simulator sim;
  SinkNode x{&sim}, y{&sim};
  connect(x.port(), y.port(), LinkParams{100.0, 0});
  const Packet pkt = make_packet(GetParam());
  EXPECT_EQ(x.port().serialization_delay(pkt),
            static_cast<Tick>(static_cast<double>(pkt.size() + 24) * 8.0 /
                              100.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireSizeTest,
                         ::testing::Values(0u, 64u, 256u, 1024u, 4096u));

}  // namespace
}  // namespace lumina
