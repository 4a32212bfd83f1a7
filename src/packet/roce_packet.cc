#include "packet/roce_packet.h"

#include <algorithm>
#include <array>

#include "packet/bytes.h"
#include "packet/icrc.h"
#include "packet/packet_arena.h"

namespace lumina {
namespace {

constexpr std::size_t kCnpPayloadLen = 16;  // 16 reserved bytes per RoCEv2

/// The payload pattern's source: kPattern[j] == j & 0xff, so the window
/// that starts at offset psn & 0xff reads psn, psn + 1, ... (mod 256) for
/// up to kPatternChunk bytes; longer payloads append it chunk by chunk.
constexpr std::size_t kPatternChunk = 4096;
constexpr auto kPattern = [] {
  std::array<std::uint8_t, 256 + kPatternChunk> table{};
  for (std::size_t j = 0; j < table.size(); ++j) {
    table[j] = static_cast<std::uint8_t>(j);
  }
  return table;
}();
static_assert(kPatternChunk % 256 == 0);

/// Whether this opcode carries a RETH immediately after the BTH.
bool has_reth(IbOpcode op) {
  return op == IbOpcode::kWriteFirst || op == IbOpcode::kWriteOnly ||
         op == IbOpcode::kReadRequest;
}

/// Whether this opcode carries an AETH immediately after the BTH.
bool has_aeth(IbOpcode op) {
  return op == IbOpcode::kAcknowledge || op == IbOpcode::kReadRespFirst ||
         op == IbOpcode::kReadRespLast || op == IbOpcode::kReadRespOnly ||
         op == IbOpcode::kAtomicAck;
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); i += 2) {
    sum += static_cast<std::uint32_t>(bytes[i]) << 8 | bytes[i + 1];
  }
  if (bytes.size() % 2 != 0) {
    sum += static_cast<std::uint32_t>(bytes.back()) << 8;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

std::string to_string(EventType t) {
  switch (t) {
    case EventType::kNone: return "none";
    case EventType::kEcn: return "ecn";
    case EventType::kDrop: return "drop";
    case EventType::kCorrupt: return "corrupt";
    case EventType::kRewriteMigReq: return "rewrite-migreq";
    case EventType::kDelay: return "delay";
    case EventType::kReorder: return "reorder";
    case EventType::kDuplicate: return "duplicate";
    case EventType::kBurstLoss: return "burst-loss";
    case EventType::kPauseStorm: return "pause-storm";
    case EventType::kLinkFlap: return "link-flap";
  }
  return "unknown";
}

Packet Packet::clone_arena() const {
  Packet out{PacketArena::acquire_current()};
  out.bytes.assign(bytes.begin(), bytes.end());
  return out;
}

Packet build_roce_packet(const RocePacketSpec& spec) {
  Packet pkt;
  pkt.bytes = PacketArena::acquire_current();
  const std::size_t payload_len =
      spec.opcode == IbOpcode::kCnp ? kCnpPayloadLen : spec.payload_len;
  const std::size_t ib_len =
      Bth::kWireSize + (spec.reth ? Reth::kWireSize : 0) +
      (spec.aeth ? Aeth::kWireSize : 0) +
      (spec.atomic_eth ? AtomicEth::kWireSize : 0) +
      (spec.atomic_ack_eth ? AtomicAckEth::kWireSize : 0) + payload_len +
      4;  // +4 iCRC
  const std::size_t udp_len = 8 + ib_len;
  const std::size_t ip_len = 20 + udp_len;
  pkt.bytes.reserve(14 + ip_len);

  ByteWriter w(pkt.bytes);
  // Ethernet.
  w.raw(spec.dst_mac.octets);
  w.raw(spec.src_mac.octets);
  w.u16(kEtherTypeIpv4);
  // IPv4 (no options).
  w.u8(0x45);
  w.u8(static_cast<std::uint8_t>(spec.dscp << 2 | (spec.ecn & 0b11)));
  w.u16(static_cast<std::uint16_t>(ip_len));
  w.u16(0);       // identification
  w.u16(0x4000);  // DF
  w.u8(spec.ttl);
  w.u8(kIpProtoUdp);
  w.u16(0);  // checksum placeholder
  w.u32(spec.src_ip.value);
  w.u32(spec.dst_ip.value);
  // UDP.
  w.u16(spec.src_udp_port);
  w.u16(kRoceUdpPort);
  w.u16(static_cast<std::uint16_t>(udp_len));
  w.u16(0);  // UDP checksum optional for IPv4; RoCEv2 senders emit 0
  // BTH.
  w.u8(static_cast<std::uint8_t>(spec.opcode));
  w.u8(static_cast<std::uint8_t>((spec.mig_req ? 0x40 : 0x00)));
  w.u16(0xffff);  // pkey
  w.u8(0);        // resv8a
  w.u24(spec.dest_qpn & kPsnMask);
  // Fold ack_req into the top bit of the PSN word, per BTH layout.
  w.u8(static_cast<std::uint8_t>(spec.ack_req ? 0x80 : 0x00));
  w.u24(spec.psn & kPsnMask);

  if (spec.reth) {
    w.u64(spec.reth->vaddr);
    w.u32(spec.reth->rkey);
    w.u32(spec.reth->dma_len);
  }
  if (spec.aeth) {
    w.u8(spec.aeth->syndrome);
    w.u24(spec.aeth->msn & kPsnMask);
  }
  if (spec.atomic_eth) {
    w.u64(spec.atomic_eth->vaddr);
    w.u32(spec.atomic_eth->rkey);
    w.u64(spec.atomic_eth->swap_add);
    w.u64(spec.atomic_eth->compare);
  }
  if (spec.atomic_ack_eth) {
    w.u64(spec.atomic_ack_eth->original);
  }
  // Deterministic payload pattern: byte i is uint8(psn + i). The content
  // is irrelevant to the analyzers, but the bytes must exist so iCRC and
  // corruption behave like hardware. Every chunk but the last is a whole
  // number of 256-byte periods, so each one starts at the same table offset.
  const std::size_t start = spec.psn & 0xff;
  for (std::size_t left = payload_len; left > 0;) {
    const std::size_t n = std::min(left, kPatternChunk);
    const auto* from = kPattern.data() + start;
    pkt.bytes.insert(pkt.bytes.end(), from, from + n);
    left -= n;
  }

  refresh_ip_checksum(pkt);
  w.u32(0);  // iCRC placeholder
  refresh_icrc(pkt);
  return pkt;
}

std::optional<RoceView> parse_roce(std::span<const std::uint8_t> bytes,
                                   bool allow_trimmed) {
  ByteReader r(bytes);
  RoceView v;

  // Ethernet.
  for (auto& o : v.eth_dst.octets) o = r.u8();
  for (auto& o : v.eth_src.octets) o = r.u8();
  if (r.u16() != kEtherTypeIpv4) return std::nullopt;
  // IPv4.
  if (r.u8() != 0x45) return std::nullopt;
  const std::uint8_t tos = r.u8();
  v.dscp = tos >> 2;
  v.ecn = tos & 0b11;
  const std::uint16_t total_len = r.u16();
  r.skip(4);  // id, flags/frag
  v.ttl = r.u8();
  if (r.u8() != kIpProtoUdp) return std::nullopt;
  r.skip(2);  // checksum
  v.src_ip.value = r.u32();
  v.dst_ip.value = r.u32();
  const std::size_t declared_size = total_len + 14u;
  if (declared_size != bytes.size() &&
      !(allow_trimmed && declared_size > bytes.size())) {
    return std::nullopt;
  }
  // UDP.
  v.udp_src_port = r.u16();
  v.udp_dst_port = r.u16();
  r.skip(4);  // length, checksum
  // BTH.
  const std::uint8_t opcode = r.u8();
  v.bth.opcode = static_cast<IbOpcode>(opcode);
  const std::uint8_t flags = r.u8();
  v.bth.solicited = (flags & 0x80) != 0;
  v.bth.mig_req = (flags & 0x40) != 0;
  v.bth.pad_count = (flags >> 4) & 0b11;
  v.bth.tver = flags & 0x0f;
  v.bth.pkey = r.u16();
  r.skip(1);  // resv8a
  v.bth.dest_qpn = r.u24();
  v.bth.ack_req = (r.u8() & 0x80) != 0;
  v.bth.psn = r.u24();
  if (!r.ok()) return std::nullopt;

  if (has_reth(v.bth.opcode)) {
    Reth reth;
    reth.vaddr = r.u64();
    reth.rkey = r.u32();
    reth.dma_len = r.u32();
    v.reth = reth;
  }
  if (has_aeth(v.bth.opcode)) {
    Aeth aeth;
    aeth.syndrome = r.u8();
    aeth.msn = r.u24();
    v.aeth = aeth;
  }
  if (is_atomic(v.bth.opcode)) {
    AtomicEth atomic;
    atomic.vaddr = r.u64();
    atomic.rkey = r.u32();
    atomic.swap_add = r.u64();
    atomic.compare = r.u64();
    v.atomic_eth = atomic;
  }
  if (v.bth.opcode == IbOpcode::kAtomicAck) {
    v.atomic_ack_eth = AtomicAckEth{r.u64()};
  }
  if (!r.ok()) return std::nullopt;

  v.payload_offset = r.offset();
  if (declared_size == bytes.size()) {
    if (r.remaining() < 4) return std::nullopt;
    v.payload_len = r.remaining() - 4;
    ByteReader tail(bytes.subspan(bytes.size() - 4));
    v.icrc = tail.u32();
  } else {
    // Trimmed capture: derive the payload length from the IP header.
    if (declared_size < v.payload_offset + 4) return std::nullopt;
    v.payload_len = declared_size - v.payload_offset - 4;
    v.icrc = 0;
  }
  return v;
}

namespace {

/// iCRC over the frame as it stands (everything but the 4-byte trailer).
std::uint32_t frame_icrc(const Packet& pkt) {
  return compute_icrc(pkt.span().first(pkt.size() - 4), off::kIp);
}

void write_icrc(Packet& pkt, std::uint32_t icrc) {
  poke_u16(pkt.span(), pkt.size() - 4, static_cast<std::uint16_t>(icrc >> 16));
  poke_u16(pkt.span(), pkt.size() - 2, static_cast<std::uint16_t>(icrc));
}

std::uint32_t read_icrc(const Packet& pkt) {
  return peek_u32(pkt.span(), pkt.size() - 4);
}

}  // namespace

bool verify_icrc(const Packet& pkt) {
  if (pkt.size() < off::kBth + Bth::kWireSize + 4) return false;
  return read_icrc(pkt) == frame_icrc(pkt);
}

void refresh_icrc(Packet& pkt) { write_icrc(pkt, frame_icrc(pkt)); }

void set_ecn_ce(Packet& pkt) {
  pkt.bytes[off::kIpTos] |= 0b11;
  refresh_ip_checksum(pkt);
}

void set_ttl(Packet& pkt, std::uint8_t ttl) {
  pkt.bytes[off::kIpTtl] = ttl;
  refresh_ip_checksum(pkt);
}

void set_src_mac(Packet& pkt, std::uint64_t value48) {
  poke_u48(pkt.span(), off::kEthSrc, value48);
}

void set_dst_mac(Packet& pkt, std::uint64_t value48) {
  poke_u48(pkt.span(), off::kEthDst, value48);
}

void set_udp_dst_port(Packet& pkt, std::uint16_t port) {
  poke_u16(pkt.span(), off::kUdpDstPort, port);
}

void set_mig_req(Packet& pkt, bool mig_req) {
  // MigReq is covered by the iCRC. CRC is affine over GF(2), so xoring the
  // iCRCs from before and after the flag write into the trailer turns a
  // correct trailer into the new correct one, and leaves a trailer that
  // was already wrong (an injected corruption) exactly as wrong, as a
  // switch data plane's incremental checksum update would.
  const std::uint32_t before = frame_icrc(pkt);
  std::uint8_t& flags = pkt.bytes[off::kBthFlags];
  flags = mig_req ? static_cast<std::uint8_t>(flags | 0x40)
                  : static_cast<std::uint8_t>(flags & ~0x40);
  write_icrc(pkt, read_icrc(pkt) ^ before ^ frame_icrc(pkt));
}

void corrupt_payload_bit(Packet& pkt, std::size_t bit_index) {
  const auto view = parse_roce(pkt);
  std::size_t byte_at;
  if (view && view->payload_len > 0) {
    byte_at = view->payload_offset + (bit_index / 8) % view->payload_len;
  } else {
    byte_at = pkt.size() - 5;  // last byte before the iCRC
  }
  pkt.bytes[byte_at] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

void refresh_ip_checksum(Packet& pkt) {
  poke_u16(pkt.span(), off::kIpCsum, 0);
  const std::uint16_t csum =
      internet_checksum(pkt.span().subspan(off::kIp, 20));
  poke_u16(pkt.span(), off::kIpCsum, csum);
}

}  // namespace lumina
