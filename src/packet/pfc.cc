#include "packet/pfc.h"

#include <cmath>

#include "packet/bytes.h"
#include "packet/packet_arena.h"

namespace lumina {

namespace {

/// 802.1Qbb destination: the link-scoped MAC-control multicast address.
constexpr MacAddress kPfcDestMac{{0x01, 0x80, 0xC2, 0x00, 0x00, 0x01}};

constexpr std::size_t kEthHeaderLen = 14;
constexpr std::size_t kMinFrameLen = 60;  // Ethernet minimum sans FCS

}  // namespace

Packet build_pfc_frame(const MacAddress& src_mac, const PfcFrame& frame) {
  Packet pkt;
  pkt.bytes = PacketArena::acquire_current();
  pkt.bytes.assign(kMinFrameLen, 0);
  for (std::size_t i = 0; i < 6; ++i) {
    pkt.bytes[off::kEthDst + i] = kPfcDestMac.octets[i];
    pkt.bytes[off::kEthSrc + i] = src_mac.octets[i];
  }
  poke_u16(pkt.bytes, off::kEthType, kMacControlEtherType);
  std::size_t at = kEthHeaderLen;
  poke_u16(pkt.bytes, at, kPfcOpcode);
  at += 2;
  poke_u16(pkt.bytes, at, frame.class_enable);
  at += 2;
  for (const std::uint16_t q : frame.quanta) {
    poke_u16(pkt.bytes, at, q);
    at += 2;
  }
  return pkt;
}

bool is_pfc_frame(const Packet& pkt) {
  return pkt.bytes.size() >= kEthHeaderLen + 4 &&
         peek_u16(pkt.span(), off::kEthType) == kMacControlEtherType &&
         peek_u16(pkt.span(), kEthHeaderLen) == kPfcOpcode;
}

std::optional<PfcFrame> parse_pfc_frame(const Packet& pkt) {
  if (!is_pfc_frame(pkt)) return std::nullopt;
  if (pkt.bytes.size() < kEthHeaderLen + 4 + 8 * 2) return std::nullopt;
  PfcFrame frame;
  frame.class_enable = peek_u16(pkt.span(), kEthHeaderLen + 2);
  for (std::size_t i = 0; i < frame.quanta.size(); ++i) {
    frame.quanta[i] = peek_u16(pkt.span(), kEthHeaderLen + 4 + i * 2);
  }
  return frame;
}

std::int64_t pfc_quanta_to_ns(std::uint16_t quanta, double link_gbps) {
  if (link_gbps <= 0) return 0;
  return static_cast<std::int64_t>(
      std::llround(static_cast<double>(quanta) *
                   static_cast<double>(kPfcBitTimesPerQuantum) / link_gbps));
}

}  // namespace lumina
