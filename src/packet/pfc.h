// 802.1Qbb priority flow control frames.
//
// The injector switch's pause-storm event emits these toward a sender, and
// the simulated RNICs parse them and gate their per-priority egress — both
// sides exchanging real wire bytes, consistent with the repo-wide rule
// that every on-path component handles actual frames.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "packet/roce_packet.h"

namespace lumina {

/// MAC control ethertype and the PFC opcode within it.
inline constexpr std::uint16_t kMacControlEtherType = 0x8808;
inline constexpr std::uint16_t kPfcOpcode = 0x0101;

/// One pause quantum is 512 bit-times of the receiving port's link speed
/// (802.3 Annex 31B), so quanta→nanoseconds depends on the link rate:
/// ns = quanta * 512 / gbps.
inline constexpr std::int64_t kPfcBitTimesPerQuantum = 512;

/// Parsed PFC frame: which priorities are named, and for how many quanta
/// each is paused (0 quanta on a named priority = resume).
struct PfcFrame {
  std::uint16_t class_enable = 0;          ///< bit i set => priority i named
  std::array<std::uint16_t, 8> quanta{};   ///< pause quanta per priority

  bool operator==(const PfcFrame&) const = default;
};

/// Builds a PFC pause frame as real wire bytes: 01:80:C2:00:00:01 dest,
/// MAC-control ethertype, PFC opcode, class-enable vector, 8 quanta words,
/// zero-padded to the 60-byte Ethernet minimum.
Packet build_pfc_frame(const MacAddress& src_mac, const PfcFrame& frame);

/// Cheap ethertype+opcode check — safe to call on any frame.
bool is_pfc_frame(const Packet& pkt);

/// Parses a PFC frame; nullopt when `pkt` is not one.
std::optional<PfcFrame> parse_pfc_frame(const Packet& pkt);

/// Converts a quanta count to nanoseconds at `link_gbps`.
std::int64_t pfc_quanta_to_ns(std::uint16_t quanta, double link_gbps);

}  // namespace lumina
