// Unit tests for the traffic dumper: RSS spreading and core choice,
// per-core capacity and overflow, packet trimming and TERM handling.
#include <gtest/gtest.h>

#include "dumper/dumper.h"
#include "packet/bytes.h"

namespace lumina {
namespace {

Packet mirrored_packet(std::uint64_t seq, Tick ts, std::uint16_t udp_port,
                       std::uint32_t payload = 1024) {
  RocePacketSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0, 0, payload};
  spec.payload_len = payload;
  spec.psn = static_cast<std::uint32_t>(seq);
  Packet pkt = build_roce_packet(spec);
  set_src_mac(pkt, seq);                     // mirror sequence number
  set_dst_mac(pkt, static_cast<std::uint64_t>(ts));  // switch timestamp
  set_ttl(pkt, static_cast<std::uint8_t>(EventType::kNone));
  set_udp_dst_port(pkt, udp_port);
  return pkt;
}

/// The `i`-th capture's kept bytes.
std::span<const std::uint8_t> captured(const TrafficDumper& dumper,
                                       std::size_t i) {
  const CaptureStore& store = dumper.capture();
  return store.frame(store.records.at(i));
}

/// Feeds packets into a dumper directly (bypassing a link).
void feed(Simulator& sim, TrafficDumper& dumper, int count,
          Tick inter_arrival, bool randomize_ports, std::uint64_t seed = 1) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const std::uint16_t port =
        randomize_ports ? static_cast<std::uint16_t>(rng.next_below(0xffff))
                        : kRoceUdpPort;
    sim.schedule_at(i * inter_arrival,
                    [&dumper, pkt = mirrored_packet(
                         static_cast<std::uint64_t>(i), i * inter_arrival,
                         port)]() mutable {
                      dumper.handle_packet(0, std::move(pkt));
                    });
  }
  sim.run();
}

TEST(Dumper, CapturesAndExtractsMetadata) {
  Simulator sim;
  TrafficDumper dumper(&sim, {});
  dumper.handle_packet(0, mirrored_packet(7, 12345, 4000));
  ASSERT_EQ(dumper.capture().records.size(), 1u);
  EXPECT_EQ(dumper.capture().records[0].meta.mirror_seq, 7u);
  EXPECT_EQ(dumper.capture().records[0].meta.ingress_timestamp, 12345);
  EXPECT_EQ(dumper.counters().captured, 1u);
  EXPECT_EQ(dumper.counters().discarded, 0u);
}

TEST(Dumper, TrimsTo128BytesKeepingOriginalLength) {
  Simulator sim;
  TrafficDumper dumper(&sim, {});
  const Packet big = mirrored_packet(0, 0, 4000, 4096);
  const std::size_t orig = big.size();
  dumper.handle_packet(0, big);
  ASSERT_EQ(dumper.capture().records.size(), 1u);
  EXPECT_EQ(captured(dumper, 0).size(), 128u);
  EXPECT_EQ(dumper.capture().records[0].orig_len, orig);
  // Headers still parse from the trimmed capture.
  const auto view = parse_roce(captured(dumper, 0), true);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->payload_len, 4096u);
}

TEST(Dumper, SmallPacketsNotPadded) {
  Simulator sim;
  TrafficDumper dumper(&sim, {});
  dumper.handle_packet(0, mirrored_packet(0, 0, 4000, 8));
  EXPECT_LT(captured(dumper, 0).size(), 128u);
}

TEST(Dumper, CutInsideTheHeadersStoresNoView) {
  // The dumper keeps the cut bytes as they are; the trimmed parser, which
  // reconstruction decodes every record with, rejects a cut inside the
  // headers.
  Simulator sim;
  TrafficDumper::Options options;
  options.trim_bytes = 40;
  TrafficDumper dumper(&sim, options);
  dumper.handle_packet(0, mirrored_packet(0, 0, 4000));
  ASSERT_EQ(dumper.capture().records.size(), 1u);
  EXPECT_EQ(captured(dumper, 0).size(), 40u);
  EXPECT_FALSE(parse_roce(captured(dumper, 0), true).has_value());
}

/// Whether `second`, delivered in the same tick as `first`, lands on the
/// core `first` took. Two cores, each with a one-frame ring and a service
/// time longer than the test: the second frame is discarded exactly when
/// its core is already busy.
bool same_core(const Packet& first, const Packet& second) {
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 2;
  options.ring_capacity = 1;
  options.per_packet_service = 1'000'000'000;
  TrafficDumper dumper(&sim, options);
  dumper.handle_packet(0, first);
  dumper.handle_packet(0, second);
  EXPECT_EQ(dumper.counters().received, 2u);
  return dumper.counters().discarded == 1;
}

/// The RSS stand-in's mix of (source IP, destination IP, UDP source port,
/// UDP destination port), as the dumper pool has always computed it: the
/// core index is this modulo the core count.
std::uint32_t reference_rss(std::uint32_t src_ip, std::uint32_t dst_ip,
                            std::uint16_t src_port, std::uint16_t dst_port) {
  std::uint64_t h = src_ip;
  h = h * 0x9e3779b97f4a7c15ULL + dst_ip;
  h = h * 0x9e3779b97f4a7c15ULL + src_port;
  h = h * 0x9e3779b97f4a7c15ULL + dst_port;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

TEST(Dumper, CoreIsAFunctionOfTheRssTuple) {
  // Every frame below carries the tuple of a data frame that maps to core
  // 1, so a frame sent to core 0 by mistake, or hashed when it should not
  // be, shows.
  const std::uint32_t src = Ipv4Address::from_octets(10, 0, 0, 1).value;
  const std::uint32_t dst = Ipv4Address::from_octets(10, 0, 0, 2).value;
  const auto core_of = [&](std::uint16_t port) {
    return reference_rss(src, dst, 49152, port) % 2;
  };
  std::uint16_t port = 4000;
  while (core_of(port) != 1) ++port;

  // A CNP and a frame hit by a corrupt event share the core of a clean
  // data frame with the same addresses and UDP ports.
  const Packet clean = mirrored_packet(0, 0, port);
  Packet corrupted = mirrored_packet(1, 0, port);
  corrupt_payload_bit(corrupted, 13);
  ASSERT_FALSE(verify_icrc(corrupted));
  RocePacketSpec cnp_spec;
  cnp_spec.src_ip = Ipv4Address{src};
  cnp_spec.dst_ip = Ipv4Address{dst};
  cnp_spec.opcode = IbOpcode::kCnp;
  Packet cnp = build_roce_packet(cnp_spec);
  set_udp_dst_port(cnp, port);
  ASSERT_TRUE(parse_roce(cnp)->is_cnp());
  EXPECT_TRUE(same_core(clean, cnp));
  EXPECT_TRUE(same_core(clean, corrupted));

  // Frames without an IPv4/UDP tuple all land on core 0: a frame of
  // another ethertype, an IPv4 frame of another protocol, and a runt that
  // ends inside the UDP header.
  Packet non_ip = mirrored_packet(2, 0, port);
  poke_u16(non_ip.span(), off::kEthType, 0x0806);
  Packet non_udp = mirrored_packet(3, 0, port);
  non_udp.bytes[off::kIpProto] = 6;
  Packet runt = mirrored_packet(4, 0, port);
  runt.bytes.resize(off::kUdpDstPort + 1);
  EXPECT_FALSE(same_core(clean, non_ip));
  EXPECT_TRUE(same_core(non_ip, non_udp));
  EXPECT_TRUE(same_core(non_ip, runt));
  // With core 0 taken, a data frame is discarded exactly when its tuple
  // maps to core 0; both outcomes occur across these ports.
  int on_zero = 0;
  for (std::uint16_t p = 4000; p < 4032; ++p) {
    on_zero += core_of(p) == 0;
    EXPECT_EQ(same_core(non_ip, mirrored_packet(5, 0, p)), core_of(p) == 0)
        << p;
  }
  EXPECT_GT(on_zero, 0);
  EXPECT_LT(on_zero, 32);
}

TEST(Dumper, SingleFlowWithoutRandomizationOverloadsOneCore) {
  // All packets hash to one core: arrival every 100 ns vs 300 ns service.
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 8;
  options.per_packet_service = 300;
  options.ring_capacity = 64;
  TrafficDumper dumper(&sim, options);
  feed(sim, dumper, 2000, 100, /*randomize_ports=*/false);
  EXPECT_GT(dumper.counters().discarded, 0u);
  EXPECT_LT(dumper.counters().captured, 2000u);
}

TEST(Dumper, RandomizedPortsSpreadAcrossCores) {
  // Same load with randomized UDP ports: 8 cores absorb it.
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 8;
  options.per_packet_service = 300;
  options.ring_capacity = 64;
  TrafficDumper dumper(&sim, options);
  feed(sim, dumper, 2000, 100, /*randomize_ports=*/true);
  EXPECT_EQ(dumper.counters().discarded, 0u);
  EXPECT_EQ(dumper.counters().captured, 2000u);
}

TEST(Dumper, SlowArrivalNeverDropsEvenOnOneCore) {
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 1;
  options.per_packet_service = 300;
  options.ring_capacity = 16;
  TrafficDumper dumper(&sim, options);
  feed(sim, dumper, 500, 400, false);  // arrival slower than service
  EXPECT_EQ(dumper.counters().discarded, 0u);
}

TEST(Dumper, TerminateRestoresUdpPortsAndStopsCapture) {
  Simulator sim;
  TrafficDumper dumper(&sim, {});
  dumper.handle_packet(0, mirrored_packet(0, 0, 31337));
  dumper.terminate();
  ASSERT_EQ(dumper.capture().records.size(), 1u);
  const auto view = parse_roce(captured(dumper, 0), true);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->udp_dst_port, kRoceUdpPort);  // restored (§3.4)
  // Post-TERM arrivals are ignored.
  dumper.handle_packet(0, mirrored_packet(1, 1, 4000));
  EXPECT_EQ(dumper.capture().records.size(), 1u);
}

class DumperCoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(DumperCoreSweep, CapacityScalesWithCores) {
  // Offered load: one packet per 50 ns (20 Mpps), service 300 ns/core.
  // Roughly `cores/6` of the load can be captured.
  const int cores = GetParam();
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = cores;
  options.per_packet_service = 300;
  options.ring_capacity = 32;
  TrafficDumper dumper(&sim, options);
  feed(sim, dumper, 3000, 50, true);
  const double ratio = static_cast<double>(dumper.counters().captured) / 3000;
  const double expected = std::min(1.0, cores * (50.0 / 300.0));
  EXPECT_NEAR(ratio, expected, 0.25) << "cores=" << cores;
}

INSTANTIATE_TEST_SUITE_P(Cores, DumperCoreSweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace lumina
