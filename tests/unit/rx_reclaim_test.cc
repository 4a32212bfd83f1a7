// Node-level packet-arena accounting: every rx exit path of the injector
// switch, the RNIC and the dumper recycles the delivered frame's buffer
// exactly once, except a path that moved the frame onward into the event
// kernel, which recycles nothing. The dumper never moves a frame: its
// capture stage copies into the capture slab. Arena counters never reach a
// run report, so the goldens cannot see a lost or doubled reclaim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "dumper/dumper.h"
#include "injector/switch.h"
#include "packet/packet_arena.h"
#include "packet/pfc.h"
#include "rnic/rnic.h"

namespace lumina {
namespace {

const FlowKey kFlow{Ipv4Address::from_octets(10, 0, 0, 1),
                    Ipv4Address::from_octets(10, 0, 0, 2), 0xea};

Packet roce_frame(std::uint32_t dest_qpn, std::uint32_t psn,
                  std::uint32_t payload = 512) {
  RocePacketSpec spec;
  spec.src_ip = kFlow.src_ip;
  spec.dst_ip = kFlow.dst_ip;
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0, 0, payload};
  spec.payload_len = payload;
  spec.dest_qpn = dest_qpn;
  spec.psn = psn;
  return build_roce_packet(spec);
}

/// Buffers recycled into the current arena while `node` handles `pkt`.
/// The simulation never runs, so only the rx path itself is measured.
std::uint64_t recycled_by(Node& node, Packet pkt) {
  const std::uint64_t before = PacketArena::current()->recycled();
  node.handle_packet(0, std::move(pkt));
  return PacketArena::current()->recycled() - before;
}

TEST(RxReclaim, SwitchRecyclesDroppedFramesOnly) {
  PacketArena arena;
  PacketArena::Scope scope(&arena);
  Simulator sim;
  EventInjectorSwitch sw(&sim, 3, EventInjectorSwitch::Options{});
  sw.add_route(kFlow.dst_ip, 1);
  sw.set_mirror_targets({{2, 1}});
  sw.register_flow(kFlow, 42);
  sw.install_rule(EventRule{kFlow, 43, 1, EventType::kDrop, 0, {}});

  // Forwarded: the frame moved into the event kernel.
  EXPECT_EQ(recycled_by(sw, roce_frame(kFlow.dst_qpn, 42)), 0u);
  // Enforced drop, after the mirror tap cloned it (§3.4).
  EXPECT_EQ(recycled_by(sw, roce_frame(kFlow.dst_qpn, 43)), 1u);
  EXPECT_EQ(sw.roce_counters().roce_tx, 1u);
  EXPECT_EQ(sw.roce_counters().dropped_by_event, 1u);
  EXPECT_EQ(sw.roce_counters().mirrored, 2u);
}

TEST(RxReclaim, RnicRecyclesEveryFrame) {
  PacketArena arena;
  PacketArena::Scope scope(&arena);
  Simulator sim;
  Rnic nic(&sim, "nic", DeviceProfile::get(NicType::kCx5), RoceParameters{},
           MacAddress::from_u48(0xbb));
  const std::uint32_t qpn = nic.create_qp(QpConfig{})->qpn();

  const PfcFrame pause{.class_enable = 1, .quanta = {100}};
  EXPECT_EQ(recycled_by(nic, build_pfc_frame(MacAddress::from_u48(0xaa),
                                             pause)),
            1u);
  Packet corrupt = roce_frame(qpn, 0);
  corrupt_payload_bit(corrupt);
  EXPECT_EQ(recycled_by(nic, std::move(corrupt)), 1u);     // iCRC error
  EXPECT_EQ(recycled_by(nic, roce_frame(0x123456, 0)), 1u);  // unknown QPN
  // Dispatched: the QP callback carries a copy of the parse view.
  EXPECT_EQ(recycled_by(nic, roce_frame(qpn, 0)), 1u);
  EXPECT_EQ(nic.pause_stats().pause_frames_rx, 1u);
  EXPECT_EQ(nic.counters().icrc_error_packets, 1u);
  EXPECT_EQ(nic.counters().rx_packets, 3u);
}

TEST(RxReclaim, DumperRecyclesEveryFrame) {
  PacketArena arena;
  PacketArena::Scope scope(&arena);
  Simulator sim;
  TrafficDumper dumper(&sim, "d0",
                       TrafficDumper::Options{.cores = 1, .ring_capacity = 1});

  // Trimmed capture: the slab keeps a copy of the headers.
  EXPECT_EQ(recycled_by(dumper, roce_frame(kFlow.dst_qpn, 0)), 1u);
  // The one-slot ring is still busy at the same instant: discarded.
  EXPECT_EQ(recycled_by(dumper, roce_frame(kFlow.dst_qpn, 1)), 1u);
  EXPECT_EQ(dumper.counters().captured, 1u);
  EXPECT_EQ(dumper.counters().discarded, 1u);

  // A frame of at most trim_bytes is copied whole, so it recycles too.
  TrafficDumper roomy(&sim, "d1", TrafficDumper::Options{});
  const Packet small = roce_frame(kFlow.dst_qpn, 2, /*payload=*/8);
  ASSERT_LE(small.size(), TrafficDumper::Options{}.trim_bytes);
  EXPECT_EQ(recycled_by(roomy, small), 1u);
  const CaptureStore& store = roomy.capture();
  ASSERT_EQ(store.records.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(store.frame(store.records[0]), small.bytes));
}

}  // namespace
}  // namespace lumina
