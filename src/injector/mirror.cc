#include "injector/mirror.h"

#include "packet/bytes.h"
#include "packet/packet_arena.h"

namespace lumina {

MirrorMeta extract_mirror_meta(const Packet& pkt) {
  MirrorMeta meta;
  meta.mirror_seq = peek_u48(pkt.span(), off::kEthSrc);
  meta.ingress_timestamp =
      static_cast<Tick>(peek_u48(pkt.span(), off::kEthDst));
  meta.event = static_cast<EventType>(pkt.bytes[off::kIpTtl]);
  return meta;
}

void MirrorEngine::set_targets(std::vector<int> port_indices) {
  targets_ = std::move(port_indices);
  next_target_ = 0;
}

MirrorEngine::Mirrored MirrorEngine::mirror(const Packet& original,
                                            EventType event,
                                            Tick ingress_ts) {
  Mirrored out{original.clone_arena(), pick_target()};
  Packet& clone = out.clone;
  // Embed metadata into iCRC-masked fields; see file comment.
  set_ttl(clone, static_cast<std::uint8_t>(event));
  set_src_mac(clone, next_seq_++);
  set_dst_mac(clone, static_cast<std::uint64_t>(ingress_ts) & 0xffffffffffffULL);
  if (randomize_udp_port_) {
    // Any port except 4791 itself, so restoration is unambiguous.
    std::uint16_t port;
    do {
      port = static_cast<std::uint16_t>(rng_.next_below(0x10000));
    } while (port == kRoceUdpPort);
    set_udp_dst_port(clone, port);
  }
  return out;
}

int MirrorEngine::pick_target() {
  if (targets_.empty()) return -1;
  const int port = targets_[next_target_];
  if (++next_target_ == targets_.size()) next_target_ = 0;
  return port;
}

}  // namespace lumina
