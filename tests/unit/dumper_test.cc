// Unit tests for the traffic dumper: RSS spreading, per-core capacity and
// overflow, packet trimming, TERM handling, and pcap persistence.
#include <gtest/gtest.h>

#include <cstdio>

#include "dumper/dumper.h"

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

/// The `i`-th capture's kept bytes, as a frame the parser can read.
Packet captured(const TrafficDumper& dumper, std::size_t i) {
  const CaptureStore& store = dumper.capture();
  const auto bytes = store.frame(store.records.at(i));
  return Packet{{bytes.begin(), bytes.end()}};
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
  TrafficDumper dumper(&sim, "d0", {});
  dumper.handle_packet(0, mirrored_packet(7, 12345, 4000));
  ASSERT_EQ(dumper.capture().records.size(), 1u);
  EXPECT_EQ(dumper.capture().records[0].meta.mirror_seq, 7u);
  EXPECT_EQ(dumper.capture().records[0].meta.ingress_timestamp, 12345);
  EXPECT_EQ(dumper.counters().captured, 1u);
  EXPECT_EQ(dumper.counters().discarded, 0u);
}

TEST(Dumper, TrimsTo128BytesKeepingOriginalLength) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
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
  TrafficDumper dumper(&sim, "d0", {});
  dumper.handle_packet(0, mirrored_packet(0, 0, 4000, 8));
  EXPECT_LT(captured(dumper, 0).size(), 128u);
}

TEST(Dumper, CutInsideTheHeadersStoresNoView) {
  // A record stores a view only when the kept bytes hold every header;
  // otherwise the trimmed parser (which rejects such a cut) is the judge.
  Simulator sim;
  TrafficDumper::Options options;
  options.trim_bytes = 40;
  TrafficDumper dumper(&sim, "d0", options);
  dumper.handle_packet(0, mirrored_packet(0, 0, 4000));
  ASSERT_EQ(dumper.capture().records.size(), 1u);
  EXPECT_EQ(captured(dumper, 0).size(), 40u);
  EXPECT_FALSE(dumper.capture().records[0].view.has_value());
  EXPECT_FALSE(parse_roce(captured(dumper, 0), true).has_value());
}

TEST(Dumper, SingleFlowWithoutRandomizationOverloadsOneCore) {
  // All packets hash to one core: arrival every 100 ns vs 300 ns service.
  Simulator sim;
  TrafficDumper::Options options;
  options.cores = 8;
  options.per_packet_service = 300;
  options.ring_capacity = 64;
  TrafficDumper dumper(&sim, "d0", options);
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
  TrafficDumper dumper(&sim, "d0", options);
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
  TrafficDumper dumper(&sim, "d0", options);
  feed(sim, dumper, 500, 400, false);  // arrival slower than service
  EXPECT_EQ(dumper.counters().discarded, 0u);
}

TEST(Dumper, TerminateRestoresUdpPortsAndStopsCapture) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  dumper.handle_packet(0, mirrored_packet(0, 0, 31337));
  dumper.terminate();
  ASSERT_EQ(dumper.capture().records.size(), 1u);
  const auto view = parse_roce(captured(dumper, 0), true);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->udp_dst_port, kRoceUdpPort);  // restored (§3.4)
  // The record's stored view is restored along with the bytes.
  ASSERT_TRUE(dumper.capture().records[0].view.has_value());
  EXPECT_EQ(*dumper.capture().records[0].view, *view);
  // Post-TERM arrivals are ignored.
  dumper.handle_packet(0, mirrored_packet(1, 1, 4000));
  EXPECT_EQ(dumper.capture().records.size(), 1u);
}

TEST(Dumper, WritesPcapAfterTerminate) {
  Simulator sim;
  TrafficDumper dumper(&sim, "d0", {});
  for (int i = 0; i < 5; ++i) {
    dumper.handle_packet(
        0, mirrored_packet(static_cast<std::uint64_t>(i), i * 1000, 9999));
  }
  dumper.terminate();
  const std::string path = ::testing::TempDir() + "/dumper_test.pcap";
  ASSERT_TRUE(dumper.write_pcap(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  // Global header + 5 * (record header + trimmed packet).
  EXPECT_GE(std::ftell(f), 24 + 5 * 16);
  std::fclose(f);
  std::remove(path.c_str());
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
  TrafficDumper dumper(&sim, "d0", options);
  feed(sim, dumper, 3000, 50, true);
  const double ratio = static_cast<double>(dumper.counters().captured) / 3000;
  const double expected = std::min(1.0, cores * (50.0 / 300.0));
  EXPECT_NEAR(ratio, expected, 0.25) << "cores=" << cores;
}

INSTANTIATE_TEST_SUITE_P(Cores, DumperCoreSweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace lumina
