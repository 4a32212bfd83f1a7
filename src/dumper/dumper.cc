#include "dumper/dumper.h"

#include <algorithm>

#include "packet/bytes.h"
#include "packet/packet_arena.h"
#include "util/spare_vectors.h"

namespace lumina {
namespace {

/// Toeplitz-flavored RSS stand-in: mixes the fields real RSS hashes, read
/// at their fixed offsets. A frame that is not IPv4/UDP, or too short to
/// carry both UDP ports, has no tuple and goes to core 0.
std::size_t rss_core(std::span<const std::uint8_t> frame, std::size_t cores) {
  if (frame.size() < off::kUdpDstPort + 2 ||
      peek_u16(frame, off::kEthType) != kEtherTypeIpv4 ||
      frame[off::kIp] != 0x45 || frame[off::kIpProto] != kIpProtoUdp) {
    return 0;
  }
  std::uint64_t h = peek_u32(frame, off::kIpSrc);
  h = h * 0x9e3779b97f4a7c15ULL + peek_u32(frame, off::kIpDst);
  h = h * 0x9e3779b97f4a7c15ULL + peek_u16(frame, off::kUdpSrcPort);
  h = h * 0x9e3779b97f4a7c15ULL + peek_u16(frame, off::kUdpDstPort);
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h) % cores;
}

}  // namespace

TrafficDumper::TrafficDumper(Simulator* sim, Options options)
    : sim_(sim),
      options_(options),
      port_(std::make_unique<Port>(sim, this, 0)),
      core_busy_until_(static_cast<std::size_t>(std::max(1, options.cores)),
                       0),
      capture_{.bytes = SpareVectors<std::uint8_t>::take(),
               .records = SpareVectors<CaptureRecord>::take()} {}

void TrafficDumper::handle_packet(int, Packet pkt) {
  // Nothing moves the frame out (a capture copies into the slab), so the
  // guard recycles the wire buffer on every path.
  ScopedPacketReclaim reclaim(pkt);
  if (terminated_) return;
  ++counters_.received;

  // Admit: RSS picks the core from the frame's bytes, and each core has
  // finite per-packet service capacity: ring overflow -> NIC discard.
  const Tick now = sim_->now();
  Tick& busy = core_busy_until_[rss_core(pkt.span(), core_busy_until_.size())];
  const Tick service = options_.per_packet_service;
  const std::size_t backlog =
      busy > now ? static_cast<std::size_t>((busy - now) / service) : 0;
  if (backlog >= options_.ring_capacity) {
    ++counters_.discarded;
    return;
  }
  busy = std::max(busy, now) + service;

  // Capture: append the first trim_bytes of the frame to the slab, and a
  // record carrying the embedded mirror metadata.
  const std::size_t kept = std::min(pkt.size(), options_.trim_bytes);
  capture_.records.push_back(CaptureRecord{
      .offset = capture_.bytes.size(),
      .length = kept,
      .orig_len = pkt.size(),
      .meta = extract_mirror_meta(pkt),
  });
  const std::span<const std::uint8_t> head = pkt.span().first(kept);
  capture_.bytes.insert(capture_.bytes.end(), head.begin(), head.end());
  ++counters_.captured;
}

void TrafficDumper::terminate() {
  if (terminated_) return;
  terminated_ = true;
  // §3.4: before writing to disk, the previously randomized UDP
  // destination port is reverted to 4791.
  for (CaptureRecord& record : capture_.records) {
    if (record.length >= off::kUdpDstPort + 2) {
      poke_u16(capture_.bytes, record.offset + off::kUdpDstPort,
               kRoceUdpPort);
    }
  }
}

}  // namespace lumina
