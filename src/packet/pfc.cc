#include "packet/pfc.h"

#include <cmath>

#include "packet/packet_arena.h"

namespace lumina {

namespace {

/// 802.1Qbb destination: the link-scoped MAC-control multicast address.
constexpr MacAddress kPfcDestMac{{0x01, 0x80, 0xC2, 0x00, 0x00, 0x01}};

constexpr std::size_t kEthHeaderLen = 14;
constexpr std::size_t kMinFrameLen = 60;  // Ethernet minimum sans FCS

void put_u16(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint16_t v) {
  bytes[at] = static_cast<std::uint8_t>(v >> 8);
  bytes[at + 1] = static_cast<std::uint8_t>(v & 0xFF);
}

std::uint16_t get_u16(const Packet& pkt, std::size_t at) {
  return static_cast<std::uint16_t>(pkt.bytes[at] << 8 | pkt.bytes[at + 1]);
}

}  // namespace

Packet build_pfc_frame(const MacAddress& src_mac, const PfcFrame& frame) {
  Packet pkt;
  pkt.bytes = PacketArena::acquire_current();
  pkt.bytes.assign(kMinFrameLen, 0);
  for (std::size_t i = 0; i < 6; ++i) {
    pkt.bytes[off::kEthDst + i] = kPfcDestMac.octets[i];
    pkt.bytes[off::kEthSrc + i] = src_mac.octets[i];
  }
  put_u16(pkt.bytes, off::kEthType, kMacControlEtherType);
  std::size_t at = kEthHeaderLen;
  put_u16(pkt.bytes, at, kPfcOpcode);
  at += 2;
  put_u16(pkt.bytes, at, frame.class_enable);
  at += 2;
  for (const std::uint16_t q : frame.quanta) {
    put_u16(pkt.bytes, at, q);
    at += 2;
  }
  return pkt;
}

bool is_pfc_frame(const Packet& pkt) {
  return pkt.bytes.size() >= kEthHeaderLen + 4 &&
         get_u16(pkt, off::kEthType) == kMacControlEtherType &&
         get_u16(pkt, kEthHeaderLen) == kPfcOpcode;
}

std::optional<PfcFrame> parse_pfc_frame(const Packet& pkt) {
  if (!is_pfc_frame(pkt)) return std::nullopt;
  if (pkt.bytes.size() < kEthHeaderLen + 4 + 8 * 2) return std::nullopt;
  PfcFrame frame;
  frame.class_enable = get_u16(pkt, kEthHeaderLen + 2);
  for (std::size_t i = 0; i < frame.quanta.size(); ++i) {
    frame.quanta[i] = get_u16(pkt, kEthHeaderLen + 4 + i * 2);
  }
  return frame;
}

std::int64_t pfc_quanta_to_ns(std::uint16_t quanta, double link_gbps) {
  if (link_gbps <= 0) return 0;
  return static_cast<std::int64_t>(
      std::llround(static_cast<double>(quanta) *
                   static_cast<double>(kPfcBitTimesPerQuantum) / link_gbps));
}

std::int64_t pfc_max_pause_ns(double link_gbps) {
  return pfc_quanta_to_ns(0xFFFF, link_gbps);
}

}  // namespace lumina
