// Serialized RoCEv2 frame: builder, parser, and in-place field mutators.
//
// Packets travel through the simulated testbed as real wire bytes
// (Ethernet / IPv4 / UDP:4791 / BTH [/RETH|AETH] / payload / iCRC). Every
// on-path component — RNIC, event-injector switch, traffic dumper — reads
// and rewrites the same byte image a hardware implementation would see,
// so header-rewriting tricks (metadata embedding, ECN marking, MigReq
// rewriting) behave exactly as they do on the Tofino.
//
// A Packet is its bytes and nothing else. The switch and the RNIC decode a
// frame once on receipt and keep the view as a local of their receive
// path; the dumper only copies, and the collector decodes its captures
// (docs/packet.md, "One decode per node").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "packet/addresses.h"
#include "packet/ib.h"

namespace lumina {

/// Event kinds the injector can apply; the mirror engine embeds the value
/// in the TTL field of mirrored copies (§3.4 "Indicating events").
/// kDelay and kReorder implement the §7 extension ("quantitatively adding
/// delay and packet reordering ... as part of our future work"); the
/// stateful fault models after them (duplication, Gilbert–Elliott burst
/// loss, PFC pause storms, link flaps) widen the fuzzing vocabulary per
/// ROADMAP "Scenario explosion".
enum class EventType : std::uint8_t {
  kNone = 0,
  kEcn = 1,
  kDrop = 2,
  kCorrupt = 3,
  kRewriteMigReq = 4,
  kDelay = 5,
  kReorder = 6,
  kDuplicate = 7,
  kBurstLoss = 8,
  kPauseStorm = 9,
  kLinkFlap = 10,
};

/// Number of EventType values. Keep in sync with the enum: the round-trip
/// test in tests/unit/config_test.cc walks [0, kNumEventTypes) through
/// to_string()/parse_event_type() and asserts kNumEventTypes itself formats
/// as "unknown", so growing the enum without bumping this (and both string
/// maps) fails a test instead of silently defaulting.
inline constexpr int kNumEventTypes = 11;

std::string to_string(EventType t);

/// Parameters of the stateful fault models. Plain data shared by the config
/// schema (DataPacketEvent), the injector's match-action table (EventRule /
/// EventAction), and the fuzzer's mutation vocabulary. Only the fields of
/// the matching EventType are meaningful; defaults keep unrelated events
/// byte-identical to their pre-fault-vocabulary encoding.
struct FaultParams {
  /// kBurstLoss: Gilbert–Elliott transition probabilities — Good→Bad on
  /// `ge_p`, Bad→Good on `ge_r` (stationary loss rate p/(p+r), mean burst
  /// length 1/r packets).
  double ge_p = 0.05;
  double ge_r = 0.25;
  /// kPauseStorm / kLinkFlap: how long the storm / outage lasts, in ns.
  /// kBurstLoss: channel lifetime after activation (0 = rest of the run).
  std::int64_t duration = 0;
  /// kPauseStorm: 802.1Qbb priority class the pause frames name.
  int priority = 0;
  /// kLinkFlap: disposition of packets queued on the port when it goes
  /// down — true drops them (ports lose their FIFOs), false holds them
  /// for retransmission-free recovery once the link returns.
  bool flap_drops_queued = true;

  bool operator==(const FaultParams&) const = default;
};

/// Parsed view of a RoCEv2 frame. Header structs are copies; offsets allow
/// callers to patch the original bytes.
struct RoceView {
  MacAddress eth_dst;
  MacAddress eth_src;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint8_t ttl = 0;
  std::uint8_t dscp = 0;
  std::uint8_t ecn = 0;
  std::uint16_t udp_src_port = 0;
  std::uint16_t udp_dst_port = 0;
  Bth bth;
  std::optional<Reth> reth;
  std::optional<Aeth> aeth;
  std::optional<AtomicEth> atomic_eth;
  std::optional<AtomicAckEth> atomic_ack_eth;
  std::size_t payload_offset = 0;
  std::size_t payload_len = 0;
  std::uint32_t icrc = 0;

  bool is_cnp() const { return bth.opcode == IbOpcode::kCnp; }
  bool ecn_ce() const { return ecn == 0b11; }

  bool operator==(const RoceView&) const = default;
};

/// A frame on the wire. `bytes` is the full L2 frame excluding preamble and
/// FCS; `kWireOverheadBytes` accounts for those plus the inter-frame gap
/// when computing serialization delay.
struct Packet {
  std::vector<std::uint8_t> bytes;

  static constexpr std::size_t kWireOverheadBytes = 24;  // preamble+FCS+IFG

  std::size_t size() const { return bytes.size(); }
  std::size_t wire_size() const { return bytes.size() + kWireOverheadBytes; }

  std::span<std::uint8_t> span() { return bytes; }
  std::span<const std::uint8_t> span() const { return bytes; }

  /// Copies this frame into a buffer from the thread's current PacketArena
  /// (a plain vector without one). The mirror clone and the injector's
  /// duplicate event share this; the dumper's header trim copies into its
  /// capture slab instead (dumper/dumper.h).
  Packet clone_arena() const;
};
// Nothing rides along with the bytes, so moving a frame moves one vector.
static_assert(sizeof(Packet) == sizeof(std::vector<std::uint8_t>));

/// Everything needed to build one RoCEv2 packet.
struct RocePacketSpec {
  MacAddress src_mac;
  MacAddress dst_mac;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint8_t ttl = 64;
  std::uint8_t dscp = 0;
  std::uint8_t ecn = 0b10;  // ECT(0); injector may set CE (0b11)
  std::uint16_t src_udp_port = 49152;

  IbOpcode opcode = IbOpcode::kSendOnly;
  bool mig_req = true;
  bool ack_req = false;
  std::uint32_t dest_qpn = 0;
  std::uint32_t psn = 0;
  std::optional<Reth> reth;
  std::optional<Aeth> aeth;
  std::optional<AtomicEth> atomic_eth;        // CmpSwap / FetchAdd requests
  std::optional<AtomicAckEth> atomic_ack_eth; // AtomicAck responses
  std::uint32_t payload_len = 0;  // payload bytes (deterministic pattern)
};

/// Fixed byte offsets within a frame (Ethernet + IPv4 without options).
namespace off {
inline constexpr std::size_t kEthDst = 0;
inline constexpr std::size_t kEthSrc = 6;
inline constexpr std::size_t kEthType = 12;
inline constexpr std::size_t kIp = 14;
inline constexpr std::size_t kIpTos = kIp + 1;
inline constexpr std::size_t kIpTtl = kIp + 8;
inline constexpr std::size_t kIpProto = kIp + 9;
inline constexpr std::size_t kIpCsum = kIp + 10;
inline constexpr std::size_t kIpSrc = kIp + 12;
inline constexpr std::size_t kIpDst = kIp + 16;
inline constexpr std::size_t kUdp = kIp + 20;
inline constexpr std::size_t kUdpSrcPort = kUdp;
inline constexpr std::size_t kUdpDstPort = kUdp + 2;
inline constexpr std::size_t kBth = kUdp + 8;
inline constexpr std::size_t kBthFlags = kBth + 1;  // SE|M|Pad|TVer
inline constexpr std::size_t kBthPsn = kBth + 9;
}  // namespace off

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint8_t kIpProtoUdp = 17;
inline constexpr std::uint16_t kRoceUdpPort = 4791;

/// Builds a fully serialized frame (headers, payload pattern, iCRC).
Packet build_roce_packet(const RocePacketSpec& spec);

/// Parses a frame. Returns nullopt for anything that is not a well-formed
/// RoCEv2-shaped frame (wrong ethertype/protocol, truncated headers).
/// Parsing does NOT require the UDP destination port to be 4791, because
/// the mirror engine deliberately randomizes it (§3.4 RSS trick).
///
/// With `allow_trimmed` the frame may be shorter than the IP total length
/// (the traffic dumper keeps only the first 128 bytes, §5); payload length
/// is then derived from the IP header and the iCRC is reported as 0.
///
/// Every call decodes the bytes; the switch and the RNIC call it once per
/// received frame and keep the view as a local of their receive path. The
/// span form decodes bytes that are not a Packet, such as a capture
/// record's kept head inside its dumper's slab (reconstruct_trace).
std::optional<RoceView> parse_roce(std::span<const std::uint8_t> bytes,
                                   bool allow_trimmed = false);
inline std::optional<RoceView> parse_roce(const Packet& pkt,
                                          bool allow_trimmed = false) {
  return parse_roce(pkt.span(), allow_trimmed);
}

/// Recomputes and verifies the trailing iCRC. Corrupted packets fail.
bool verify_icrc(const Packet& pkt);

/// Recomputes the trailing iCRC over the frame as it stands and writes it
/// in place. The builder uses it; set_mig_req instead xors the change in
/// the iCRC into the trailer, so a stale trailer stays stale.
void refresh_icrc(Packet& pkt);

// ---- In-place mutators (the switch/mirror data plane) -------------------
// ECN / TTL / MAC rewrites never touch the iCRC (those fields are masked,
// see packet/icrc.h). MigReq is covered by the iCRC, so rewriting it must
// update the trailing CRC, mirroring what a NIC-tolerated rewrite does.

void set_ecn_ce(Packet& pkt);
void set_ttl(Packet& pkt, std::uint8_t ttl);
void set_src_mac(Packet& pkt, std::uint64_t value48);
void set_dst_mac(Packet& pkt, std::uint64_t value48);
void set_udp_dst_port(Packet& pkt, std::uint16_t port);
void set_mig_req(Packet& pkt, bool mig_req);

/// Flips one payload bit without fixing the iCRC — the injector's "corrupt"
/// event. Falls back to the last header byte for zero-payload packets.
void corrupt_payload_bit(Packet& pkt, std::size_t bit_index = 0);

/// Refreshes the IPv4 header checksum after a header rewrite.
void refresh_ip_checksum(Packet& pkt);

}  // namespace lumina
