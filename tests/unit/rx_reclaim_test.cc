// Node-level packet-arena accounting: every rx exit path of the injector
// switch, the RNIC and the dumper recycles the delivered frame's buffer
// exactly once, except a path that moved the frame onward into the event
// kernel, the switch's fused-departure FIFO or a reorder slot, which
// recycles nothing. The dumper never moves
// a frame: a capture copies into the capture slab. Arena counters never
// reach a run report, so the goldens cannot see a lost or doubled reclaim.
// The counters checked beside the reclaims pin the order of each node's
// receive steps: which step saw a frame that an earlier one dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "dumper/dumper.h"
#include "injector/switch.h"
#include "packet/bytes.h"
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

/// `frame` relabelled with the ARP ethertype: no longer RoCE-shaped.
Packet as_arp(Packet frame) {
  poke_u16(frame.span(), off::kEthType, 0x0806);
  return frame;
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
  sw.set_mirror_targets({2});
  sw.register_flow(kFlow, 42);
  sw.install_rule(EventRule{kFlow, 43, 1, EventType::kDrop, 0, {}});
  sw.install_rule(EventRule{kFlow, 44, 1, EventType::kReorder, 0, {}});

  // Not RoCE: dropped before classification counts it. Its one event is
  // the deferred warning.
  EXPECT_EQ(recycled_by(sw, as_arp(roce_frame(kFlow.dst_qpn, 41))), 1u);
  EXPECT_EQ(sw.roce_counters().roce_rx, 0u);
  EXPECT_EQ(sim.pending_events(), 1u);
  // Forwarded undelayed: the frame moved into a fused departure with its
  // mirror copy.
  EXPECT_EQ(recycled_by(sw, roce_frame(kFlow.dst_qpn, 42)), 0u);
  // Enforced drop, after the mirror tap cloned it (§3.4).
  EXPECT_EQ(recycled_by(sw, roce_frame(kFlow.dst_qpn, 43)), 1u);
  // Held for reordering: the frame moved into its flow's reorder slot.
  EXPECT_EQ(recycled_by(sw, roce_frame(kFlow.dst_qpn, 44)), 0u);
  EXPECT_EQ(sw.roce_counters().roce_rx, 3u);
  EXPECT_EQ(sw.roce_counters().roce_tx, 1u);
  EXPECT_EQ(sw.roce_counters().dropped_by_event, 1u);
  EXPECT_EQ(sw.roce_counters().mirrored, 3u);
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
  // Not RoCE, with a broken iCRC: received, then dropped by the decode,
  // which comes before the iCRC check, so no iCRC error is counted.
  Packet garbled = roce_frame(qpn, 0);
  corrupt_payload_bit(garbled);
  EXPECT_EQ(recycled_by(nic, as_arp(std::move(garbled))), 1u);
  Packet corrupt = roce_frame(qpn, 0);
  corrupt_payload_bit(corrupt);
  EXPECT_EQ(recycled_by(nic, std::move(corrupt)), 1u);     // iCRC error
  EXPECT_EQ(recycled_by(nic, roce_frame(0x123456, 0)), 1u);  // unknown QPN
  // Dispatched: the QP callback carries a copy of the parse view.
  EXPECT_EQ(recycled_by(nic, roce_frame(qpn, 0)), 1u);
  EXPECT_EQ(nic.pause_stats().pause_frames_rx, 1u);
  EXPECT_EQ(nic.counters().icrc_error_packets, 1u);
  EXPECT_EQ(nic.counters().rx_packets, 4u);

  // §6.2.2: 12 concurrent read slow paths wedge a CX4 Lx's RX pipeline,
  // which then discards every frame before the iCRC check sees it.
  Rnic stalled(&sim, "stalled", DeviceProfile::get(NicType::kCx4Lx),
               RoceParameters{}, MacAddress::from_u48(0xcc));
  for (int i = 0; i < 12; ++i) stalled.read_slow_path_begin();
  Packet doomed = roce_frame(qpn, 0);
  corrupt_payload_bit(doomed);
  EXPECT_EQ(recycled_by(stalled, std::move(doomed)), 1u);
  EXPECT_EQ(stalled.counters().rx_packets, 1u);
  EXPECT_EQ(stalled.counters().rx_discards_phy, 1u);
  EXPECT_EQ(stalled.counters().icrc_error_packets, 0u);
}

TEST(RxReclaim, DumperRecyclesEveryFrame) {
  PacketArena arena;
  PacketArena::Scope scope(&arena);
  Simulator sim;
  TrafficDumper dumper(
      &sim, TrafficDumper::Options{.cores = 1, .ring_capacity = 1});

  // Trimmed capture: the slab keeps a copy of the headers.
  EXPECT_EQ(recycled_by(dumper, roce_frame(kFlow.dst_qpn, 0)), 1u);
  // The one-slot ring is still busy at the same instant: discarded.
  EXPECT_EQ(recycled_by(dumper, roce_frame(kFlow.dst_qpn, 1)), 1u);
  EXPECT_EQ(dumper.counters().captured, 1u);
  EXPECT_EQ(dumper.counters().discarded, 1u);
  // After TERM a frame that still arrives is not received, only recycled.
  dumper.terminate();
  EXPECT_EQ(recycled_by(dumper, roce_frame(kFlow.dst_qpn, 3)), 1u);
  EXPECT_EQ(dumper.counters().received, 2u);

  // A frame of at most trim_bytes is copied whole, so it recycles too.
  TrafficDumper roomy(&sim, TrafficDumper::Options{});
  const Packet small = roce_frame(kFlow.dst_qpn, 2, /*payload=*/8);
  ASSERT_LE(small.size(), TrafficDumper::Options{}.trim_bytes);
  EXPECT_EQ(recycled_by(roomy, small), 1u);
  const CaptureStore& store = roomy.capture();
  ASSERT_EQ(store.records.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(store.frame(store.records[0]), small.bytes));
}

}  // namespace
}  // namespace lumina
