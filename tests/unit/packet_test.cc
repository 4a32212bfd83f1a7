// Unit and property tests for the RoCEv2 packet layer: addresses, byte
// codecs, build/parse round trips, iCRC masking invariants and the CLMUL
// CRC engine, mutators, PSN arithmetic, and the pcap byte builders.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "packet/addresses.h"
#include "packet/bytes.h"
#include "packet/icrc.h"
#include "packet/pcap_writer.h"
#include "packet/roce_packet.h"
#include "util/file_io.h"
#include "util/random.h"

namespace lumina {
namespace {

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

TEST(Addresses, MacRoundTripsThroughU48) {
  const MacAddress mac{{0x02, 0x42, 0xac, 0x11, 0x00, 0x07}};
  EXPECT_EQ(MacAddress::from_u48(mac.to_u48()), mac);
  EXPECT_EQ(mac.to_u48(), 0x0242ac110007ULL);
}

TEST(Addresses, MacFormatsAndParses) {
  const MacAddress mac{{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}};
  EXPECT_EQ(mac.to_string(), "de:ad:be:ef:00:01");
  const auto parsed = MacAddress::parse("de:ad:be:ef:00:01");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, mac);
  EXPECT_FALSE(MacAddress::parse("not-a-mac").has_value());
  EXPECT_FALSE(MacAddress::parse("00:11:22:33:44").has_value());
}

TEST(Addresses, Ipv4FormatsAndParses) {
  const auto ip = Ipv4Address::from_octets(10, 0, 0, 2);
  EXPECT_EQ(ip.to_string(), "10.0.0.2");
  EXPECT_EQ(Ipv4Address::parse("10.0.0.2"), ip);
  // CIDR suffix accepted (Listing 1 writes "10.0.0.2/24").
  EXPECT_EQ(Ipv4Address::parse("10.0.0.2/24"), ip);
  EXPECT_FALSE(Ipv4Address::parse("10.0.0.300").has_value());
  EXPECT_FALSE(Ipv4Address::parse("banana").has_value());
}

// ---------------------------------------------------------------------------
// Byte codecs
// ---------------------------------------------------------------------------

TEST(Bytes, WriterReaderRoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u24(0xabcdef);
  w.u32(0xdeadbeef);
  w.u48(0x0123456789abULL);
  w.u64(0xfedcba9876543210ULL);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u24(), 0xabcdefu);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u48(), 0x0123456789abULL);
  EXPECT_EQ(r.u64(), 0xfedcba9876543210ULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderDetectsTruncation) {
  const std::vector<std::uint8_t> buf = {1, 2, 3};
  ByteReader r(buf);
  r.u16();
  r.u32();  // runs past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // reads after failure return 0
}

TEST(Bytes, PokeAndPeekU48) {
  std::vector<std::uint8_t> buf(10, 0);
  poke_u48(buf, 2, 0x0102030405ULL);
  EXPECT_EQ(peek_u48(buf, 2), 0x0102030405ULL);
}

// ---------------------------------------------------------------------------
// PSN arithmetic (24-bit, wrapping)
// ---------------------------------------------------------------------------

TEST(Psn, AddWraps) {
  EXPECT_EQ(psn_add(0xffffff, 1), 0u);
  EXPECT_EQ(psn_add(0, -1), 0xffffffu);
  EXPECT_EQ(psn_add(100, 50), 150u);
}

TEST(Psn, DistanceIsSigned) {
  EXPECT_EQ(psn_distance(5, 3), 2);
  EXPECT_EQ(psn_distance(3, 5), -2);
  EXPECT_EQ(psn_distance(0, 0xffffff), 1);     // across the wrap
  EXPECT_EQ(psn_distance(0xffffff, 0), -1);
}

TEST(Psn, ComparisonsAcrossWrap) {
  EXPECT_TRUE(psn_gt(2, 0xfffffe));
  EXPECT_TRUE(psn_ge(2, 2));
  EXPECT_FALSE(psn_gt(2, 2));
  EXPECT_FALSE(psn_gt(0xfffffe, 2));
}

class PsnPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PsnPropertyTest, AddThenDistanceIsIdentity) {
  const std::uint32_t base = GetParam();
  for (const std::int64_t delta : {-100, -1, 0, 1, 100, 10000}) {
    const std::uint32_t moved = psn_add(base, delta);
    EXPECT_EQ(psn_distance(moved, base), delta);
  }
}

INSTANTIATE_TEST_SUITE_P(WrapPoints, PsnPropertyTest,
                         ::testing::Values(0u, 1u, 0x7fffffu, 0x800000u,
                                           0xfffffeu, 0xffffffu, 12345u));

// ---------------------------------------------------------------------------
// Build / parse round trip
// ---------------------------------------------------------------------------

RocePacketSpec base_spec() {
  RocePacketSpec spec;
  spec.src_mac = MacAddress::from_u48(0x0200000000aa);
  spec.dst_mac = MacAddress::from_u48(0x0200000000bb);
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.src_udp_port = 50123;
  spec.dest_qpn = 0xabcdef;
  spec.psn = 0x123456;
  return spec;
}

TEST(RocePacket, BuildParseRoundTripWriteOnly) {
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0x1000, 0x55, 2048};
  spec.payload_len = 2048;
  spec.ack_req = true;
  spec.mig_req = false;

  const Packet pkt = build_roce_packet(spec);
  const auto view = parse_roce(pkt);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->src_ip, spec.src_ip);
  EXPECT_EQ(view->dst_ip, spec.dst_ip);
  EXPECT_EQ(view->udp_src_port, 50123);
  EXPECT_EQ(view->udp_dst_port, kRoceUdpPort);
  EXPECT_EQ(view->bth.opcode, IbOpcode::kWriteOnly);
  EXPECT_EQ(view->bth.dest_qpn, 0xabcdefu);
  EXPECT_EQ(view->bth.psn, 0x123456u);
  EXPECT_TRUE(view->bth.ack_req);
  EXPECT_FALSE(view->bth.mig_req);
  ASSERT_TRUE(view->reth.has_value());
  EXPECT_EQ(view->reth->vaddr, 0x1000u);
  EXPECT_EQ(view->reth->rkey, 0x55u);
  EXPECT_EQ(view->reth->dma_len, 2048u);
  EXPECT_EQ(view->payload_len, 2048u);
  EXPECT_TRUE(verify_icrc(pkt));
}

TEST(RocePacket, PayloadIsPsnPlusIndexPattern) {
  // The builder copies the payload from a 256-periodic table in chunks of
  // at most 4096 bytes. These lengths straddle the period and the chunk
  // edge; these PSNs move the table offset and cross the 24-bit wrap.
  for (const std::uint32_t psn : {0x0u, 0x7fu, 0xffu, 0xfffffeu, 0xffffffu}) {
    for (const std::uint32_t payload :
         {0u, 1u, 255u, 256u, 257u, 4095u, 4096u, 4097u, 9000u}) {
      RocePacketSpec spec = base_spec();
      spec.opcode = IbOpcode::kWriteOnly;
      spec.reth = Reth{0x1000, 0x55, payload};
      spec.payload_len = payload;
      spec.psn = psn;
      const Packet pkt = build_roce_packet(spec);
      const auto view = parse_roce(pkt);
      ASSERT_TRUE(view.has_value());
      ASSERT_EQ(view->payload_len, payload);
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < payload; ++i) {
        if (pkt.bytes[view->payload_offset + i] !=
            static_cast<std::uint8_t>(psn + i)) {
          ++wrong;
        }
      }
      EXPECT_EQ(wrong, 0u) << "psn " << psn << " payload " << payload;
      EXPECT_TRUE(verify_icrc(pkt)) << "psn " << psn << " payload " << payload;
    }
  }
}

TEST(RocePacket, AckCarriesAeth) {
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kAcknowledge;
  spec.aeth = Aeth::nak_sequence_error(7);

  const auto view = parse_roce(build_roce_packet(spec));
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->aeth.has_value());
  EXPECT_TRUE(view->aeth->is_nak());
  EXPECT_FALSE(view->aeth->is_ack());
  EXPECT_EQ(view->aeth->msn, 7u);
}

TEST(RocePacket, CnpHas16BytePayloadAndNoAeth) {
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kCnp;
  const Packet pkt = build_roce_packet(spec);
  const auto view = parse_roce(pkt);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->is_cnp());
  EXPECT_FALSE(view->aeth.has_value());
  EXPECT_EQ(view->payload_len, 16u);
  EXPECT_TRUE(verify_icrc(pkt));
}

TEST(RocePacket, RejectsGarbage) {
  Packet junk;
  junk.bytes.assign(64, 0xcc);
  EXPECT_FALSE(parse_roce(junk).has_value());
  EXPECT_FALSE(parse_roce(junk, /*allow_trimmed=*/true).has_value());
  EXPECT_FALSE(verify_icrc(junk));
}

TEST(RocePacket, RejectsTruncatedUnlessAllowed) {
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0, 0, 1024};
  spec.payload_len = 1024;
  Packet pkt = build_roce_packet(spec);
  pkt.bytes.resize(128);  // dumper-style trim
  EXPECT_FALSE(parse_roce(pkt).has_value());
  const auto view = parse_roce(pkt, /*allow_trimmed=*/true);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->payload_len, 1024u);  // derived from the IP header
  EXPECT_EQ(view->bth.psn, spec.psn);
  EXPECT_EQ(view->icrc, 0u);  // the trailer was cut off
}

using OpcodePayload = std::tuple<IbOpcode, std::uint32_t>;

class RoundTripTest : public ::testing::TestWithParam<OpcodePayload> {};

TEST_P(RoundTripTest, EveryOpcodeAndSizeRoundTrips) {
  const auto [opcode, payload] = GetParam();
  RocePacketSpec spec = base_spec();
  spec.opcode = opcode;
  spec.payload_len = payload;
  if (opcode == IbOpcode::kWriteFirst || opcode == IbOpcode::kWriteOnly ||
      opcode == IbOpcode::kReadRequest) {
    spec.reth = Reth{0x2000, 0x99, payload};
  }
  if (opcode == IbOpcode::kAcknowledge ||
      opcode == IbOpcode::kReadRespFirst ||
      opcode == IbOpcode::kReadRespLast ||
      opcode == IbOpcode::kReadRespOnly) {
    spec.aeth = Aeth::ack(3);
  }
  const Packet pkt = build_roce_packet(spec);
  const auto view = parse_roce(pkt);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bth.opcode, opcode);
  EXPECT_EQ(view->payload_len,
            opcode == IbOpcode::kCnp ? 16u : payload);
  EXPECT_EQ(view->reth.has_value(), spec.reth.has_value());
  EXPECT_EQ(view->aeth.has_value(), spec.aeth.has_value());
  EXPECT_TRUE(verify_icrc(pkt));
}

INSTANTIATE_TEST_SUITE_P(
    Opcodes, RoundTripTest,
    ::testing::Combine(
        ::testing::Values(IbOpcode::kSendFirst, IbOpcode::kSendMiddle,
                          IbOpcode::kSendLast, IbOpcode::kSendOnly,
                          IbOpcode::kWriteFirst, IbOpcode::kWriteMiddle,
                          IbOpcode::kWriteLast, IbOpcode::kWriteOnly,
                          IbOpcode::kReadRequest, IbOpcode::kReadRespFirst,
                          IbOpcode::kReadRespMiddle, IbOpcode::kReadRespLast,
                          IbOpcode::kReadRespOnly, IbOpcode::kAcknowledge,
                          IbOpcode::kCnp),
        ::testing::Values(0u, 1u, 256u, 1024u, 4096u)));

// ---------------------------------------------------------------------------
// iCRC masking invariants — the legality of Lumina's metadata embedding
// ---------------------------------------------------------------------------

Packet data_packet() {
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0, 0, 1024};
  spec.payload_len = 1024;
  return build_roce_packet(spec);
}

TEST(Icrc, EcnMarkDoesNotInvalidate) {
  Packet pkt = data_packet();
  set_ecn_ce(pkt);
  EXPECT_TRUE(verify_icrc(pkt));
  EXPECT_TRUE(parse_roce(pkt)->ecn_ce());
}

TEST(Icrc, TtlRewriteDoesNotInvalidate) {
  Packet pkt = data_packet();
  set_ttl(pkt, static_cast<std::uint8_t>(EventType::kDrop));
  EXPECT_TRUE(verify_icrc(pkt));
  EXPECT_EQ(parse_roce(pkt)->ttl, static_cast<std::uint8_t>(EventType::kDrop));
}

TEST(Icrc, MacRewritesDoNotInvalidate) {
  Packet pkt = data_packet();
  set_src_mac(pkt, 123456);          // mirror sequence number
  set_dst_mac(pkt, 0x123456789abc);  // switch timestamp
  EXPECT_TRUE(verify_icrc(pkt));
  EXPECT_EQ(parse_roce(pkt)->eth_src.to_u48(), 123456u);
  EXPECT_EQ(parse_roce(pkt)->eth_dst.to_u48(), 0x123456789abcu);
}

TEST(Icrc, UdpPortRewriteDoesNotInvalidate) {
  // UDP ports are covered only via the masked checksum; rewriting the
  // destination port (the RSS trick) keeps the iCRC valid in this model's
  // masking, matching why the dumper can restore it later.
  Packet pkt = data_packet();
  set_udp_dst_port(pkt, 31337);
  EXPECT_EQ(parse_roce(pkt)->udp_dst_port, 31337);
  set_udp_dst_port(pkt, kRoceUdpPort);
  EXPECT_TRUE(verify_icrc(pkt));
}

TEST(Icrc, MigReqRewriteRecomputesTrailer) {
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kSendOnly;
  spec.payload_len = 512;
  spec.mig_req = false;  // E810-style sender
  Packet pkt = build_roce_packet(spec);
  set_mig_req(pkt, true);
  EXPECT_TRUE(parse_roce(pkt)->bth.mig_req);
  EXPECT_TRUE(verify_icrc(pkt));  // trailer was recomputed
}

TEST(Icrc, CorruptionIsDetected) {
  Packet pkt = data_packet();
  corrupt_payload_bit(pkt, 100);
  EXPECT_FALSE(verify_icrc(pkt));
  // Headers stay parseable (only payload flipped).
  EXPECT_TRUE(parse_roce(pkt).has_value());
}

TEST(Icrc, CorruptionOnZeroPayloadFallsBackToHeaderByte) {
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kAcknowledge;
  spec.aeth = Aeth::ack(1);
  Packet pkt = build_roce_packet(spec);
  corrupt_payload_bit(pkt);
  EXPECT_FALSE(verify_icrc(pkt));
}

TEST(Icrc, Crc32MatchesKnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE 802.3 reflected).
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xcbf43926u);
}

TEST(Icrc, RandomPayloadBitflipAlwaysDetected) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    Packet pkt = data_packet();
    corrupt_payload_bit(pkt, rng.next_below(1024 * 8));
    EXPECT_FALSE(verify_icrc(pkt)) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// CRC fast path vs the retained references (packet/icrc.h)
// ---------------------------------------------------------------------------

TEST(Icrc, SliceBy8MatchesBitwiseReference) {
  Rng rng(31);
  // Lengths straddle the 8-byte slicing step; offsets shift alignment.
  for (const std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1500u}) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      std::vector<std::uint8_t> buf(offset + len);
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
      const auto data = std::span<const std::uint8_t>(buf).subspan(offset);
      EXPECT_EQ(crc32(data), crc32_reference(data))
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(Icrc, SegmentedUpdateMatchesOneShot) {
  Rng rng(32);
  std::vector<std::uint8_t> buf(777);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  const auto data = std::span<const std::uint8_t>(buf);
  // Chain updates over uneven chunks — the segmentation compute_icrc uses.
  std::uint32_t state = kCrcInit;
  std::size_t pos = 0;
  for (const std::size_t chunk : {1u, 2u, 3u, 5u, 8u, 13u, 100u}) {
    state = crc32_update(state, data.subspan(pos, chunk));
    pos += chunk;
  }
  state = crc32_update(state, data.subspan(pos));
  EXPECT_EQ(crc32_final(state), crc32(data));
}

TEST(Icrc, CopyFreeComputeMatchesPseudoPacketReference) {
  // Every opcode shape the builder produces, plus trimmed prefixes that cut
  // into the masked-offset range.
  Rng rng(34);
  for (const std::uint32_t payload : {0u, 1u, 64u, 1024u}) {
    RocePacketSpec spec = base_spec();
    spec.opcode = IbOpcode::kWriteOnly;
    spec.reth = Reth{0x5000, 0x77, payload};
    spec.payload_len = payload;
    const Packet pkt = build_roce_packet(spec);
    const auto frame = pkt.span().first(pkt.size() - 4);
    EXPECT_EQ(compute_icrc(frame, off::kIp),
              compute_icrc_reference(frame, off::kIp));
    for (int trial = 0; trial < 8; ++trial) {
      // Cuts may land inside the masked-offset range, but the frame must
      // always reach the IP header (the compute_icrc contract).
      const std::size_t cut = static_cast<std::size_t>(
          rng.next_in(off::kIp, static_cast<std::int64_t>(frame.size())));
      EXPECT_EQ(compute_icrc(frame.first(cut), off::kIp),
                compute_icrc_reference(frame.first(cut), off::kIp))
          << "cut " << cut;
    }
  }
}

TEST(Icrc, HeadBlockMatchesReferenceAtEveryShortLength) {
  // compute_icrc masks the first 56 bytes of L3 in a stack block. Every
  // cut from no L3 at all to 80 bytes of it crosses each masked offset
  // and the block edge.
  RocePacketSpec spec = base_spec();
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0x5000, 0x77, 1024};
  spec.payload_len = 1024;
  const Packet pkt = build_roce_packet(spec);
  for (std::size_t l3_len = 0; l3_len <= 80; ++l3_len) {
    const auto frame = pkt.span().first(off::kIp + l3_len);
    EXPECT_EQ(compute_icrc(frame, off::kIp),
              compute_icrc_reference(frame, off::kIp))
        << "l3 length " << l3_len;
  }
  // Any L3 offset, over bytes that are no frame at all.
  Rng rng(35);
  std::vector<std::uint8_t> buf(1024);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t l3_offset = 0; l3_offset <= 16; ++l3_offset) {
    EXPECT_EQ(compute_icrc(buf, l3_offset),
              compute_icrc_reference(buf, l3_offset))
        << "l3_offset " << l3_offset;
  }
}

TEST(Icrc, IncrementalMigReqPatchEqualsRebuild) {
  for (const bool initial : {false, true}) {
    RocePacketSpec spec = base_spec();
    spec.opcode = IbOpcode::kSendOnly;
    spec.payload_len = 700;
    spec.mig_req = initial;
    Packet pkt = build_roce_packet(spec);
    set_mig_req(pkt, !initial);
    RocePacketSpec flipped = spec;
    flipped.mig_req = !initial;
    EXPECT_EQ(pkt.bytes, build_roce_packet(flipped).bytes);
    set_mig_req(pkt, initial);  // and back
    EXPECT_EQ(pkt.bytes, build_roce_packet(spec).bytes);
  }
}

TEST(Icrc, MigReqPatchPreservesStaleness) {
  // An already-corrupt frame must stay exactly as corrupt across a MigReq
  // rewrite: set_mig_req xors only the change in the iCRC into the
  // trailer, so the trailer error carries over verbatim, like a switch's
  // incremental checksum update.
  Packet pkt = data_packet();
  corrupt_payload_bit(pkt, 9);
  EXPECT_FALSE(verify_icrc(pkt));
  set_mig_req(pkt, false);
  EXPECT_FALSE(verify_icrc(pkt));
  // Undo both changes: the frame must verify again bit-for-bit.
  set_mig_req(pkt, true);
  corrupt_payload_bit(pkt, 9);
  EXPECT_TRUE(verify_icrc(pkt));
}

// ---------------------------------------------------------------------------
// CLMUL-vs-slice-by-8 differential: the folded iCRC engine must be
// observationally invisible. Gated on runtime CPU-feature detection — on
// hardware without PCLMULQDQ the engine reports unsupported and these
// tests reduce to the fallback identity.
// ---------------------------------------------------------------------------

TEST(ClmulCrc, MatchesSliceBy8AcrossLengthsAndAlignments) {
  Rng rng(0xc1c);
  // Lengths bracket the kClmulMinSpan (64 B) threshold: below it
  // (slice-by-8 fallback), 64/65/127/128/129 (fold and 16-byte remainder
  // boundaries), and jumbo-frame-ish tails.
  const std::size_t lengths[] = {0,  1,  15,  16,  17,  63,   64,  65,
                                 96, 127, 128, 129, 256, 1023, 1500, 4096};
  for (const std::size_t len : lengths) {
    for (std::size_t lead = 0; lead < 8; ++lead) {
      std::vector<std::uint8_t> backing(lead + len);
      for (auto& b : backing) {
        b = static_cast<std::uint8_t>(rng.next_below(256));
      }
      const auto data =
          std::span<const std::uint8_t>(backing).subspan(lead);
      const std::uint32_t seed =
          static_cast<std::uint32_t>(rng.next_u64());
      EXPECT_EQ(crc32_update_clmul(seed, data),
                crc32_update_slice8(seed, data))
          << "len " << len << " lead " << lead;
      EXPECT_EQ(crc32_update(seed, data), crc32_update_slice8(seed, data))
          << "dispatcher, len " << len << " lead " << lead;
    }
  }
}

TEST(ClmulCrc, SupportedEngineIsExercisedWhenCpuHasIt) {
  // On PCLMULQDQ hardware the differential above must have exercised the
  // folded engine (not just the fallback); record which path ran so a CI
  // log shows whether the fast path was covered.
  if (!crc32_clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1 (or build disabled CLMUL); "
                    "fallback identity covered above";
  }
  std::vector<std::uint8_t> data(512);
  Rng rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
  EXPECT_EQ(crc32_update_clmul(kCrcInit, data),
            crc32_update_slice8(kCrcInit, data));
}

// ---------------------------------------------------------------------------
// pcap bytes
// ---------------------------------------------------------------------------

std::string le32(std::uint32_t v) {
  return {static_cast<char>(v), static_cast<char>(v >> 8),
          static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
}

TEST(PcapWriter, WritesValidHeaderAndRecords) {
  // Nanosecond-resolution magic (little endian), version 2.4, zone and
  // sigfigs 0, snaplen 65535, LINKTYPE_ETHERNET.
  EXPECT_EQ(pcap_file_header(),
            le32(0xa1b23c4d) + le32(0x00040002) + le32(0) + le32(0) +
                le32(65535) + le32(1));

  const Packet pkt = data_packet();
  const std::string frame(pkt.bytes.begin(), pkt.bytes.end());
  const auto len = static_cast<std::uint32_t>(pkt.size());
  std::string records;
  append_pcap_record(records, pkt.span(), 1'500'000'123);
  append_pcap_record(records, pkt.span(), 2'000'000'456, /*orig_len=*/4096);
  EXPECT_EQ(records, le32(1) + le32(500'000'123) + le32(len) + le32(len) +
                         frame + le32(2) + le32(456) + le32(len) +
                         le32(4096) + frame);
}

TEST(PcapWriter, OpenFailureReturnsFalse) {
  EXPECT_FALSE(write_file("/nonexistent-dir/foo.pcap", pcap_file_header()));
}

}  // namespace
}  // namespace lumina
