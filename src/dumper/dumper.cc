#include "dumper/dumper.h"

#include <algorithm>

#include "packet/bytes.h"
#include "packet/packet_arena.h"
#include "packet/pcap_writer.h"

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

// The dumper's rx pipeline: two stages that handle_packet walks each
// delivered frame through (same construction as SwitchPipeline in
// injector/switch.cc).
struct DumperPipeline {
  using FrameMeta = pipeline::FrameMeta;
  using StageContract = pipeline::StageContract;

  /// NIC/ring admission: RSS core selection from the frame's bytes and
  /// the finite per-core service model. Ring overflow -> NIC discard.
  /// Nothing in the dumper decodes a frame; reconstruct_trace does.
  class Admit : public pipeline::Stage {
   public:
    explicit Admit(TrafficDumper& dumper) : dumper_(dumper) {}
    const char* name() const override { return "admit"; }
    StageContract contract() const override { return {}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      TrafficDumper& d = dumper_;
      if (d.terminated_) return false;
      ++d.counters_.received;

      const Tick now = meta.ingress_ts;
      const std::size_t core = rss_core(pkt.span(), d.core_busy_until_.size());

      // Finite per-core processing: ring overflow -> NIC discard.
      Tick& busy = d.core_busy_until_[core];
      const Tick service = d.options_.per_packet_service;
      const std::size_t backlog =
          busy > now ? static_cast<std::size_t>((busy - now) / service) : 0;
      if (backlog >= d.options_.ring_capacity) {
        ++d.counters_.discarded;
        return false;
      }
      busy = std::max(busy, now) + service;
      return true;
    }

   private:
    TrafficDumper& dumper_;
  };

  /// Trim + store: appends the first trim_bytes of the frame to the
  /// capture slab and a record carrying the embedded mirror metadata.
  /// Retires every frame; its wire buffer stays behind for the node's
  /// guard to recycle.
  class Capture : public pipeline::Stage {
   public:
    explicit Capture(TrafficDumper& dumper) : dumper_(dumper) {}
    const char* name() const override { return "capture"; }
    StageContract contract() const override { return {}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      TrafficDumper& d = dumper_;
      CaptureStore& store = d.capture_;
      const std::size_t kept = std::min(pkt.size(), d.options_.trim_bytes);
      store.records.push_back(CaptureRecord{
          .offset = store.bytes.size(),
          .length = kept,
          .orig_len = pkt.size(),
          .captured_at = meta.ingress_ts,
          .meta = extract_mirror_meta(pkt),
      });
      const std::span<const std::uint8_t> head = pkt.span().first(kept);
      store.bytes.insert(store.bytes.end(), head.begin(), head.end());
      ++d.counters_.captured;
      return false;
    }

   private:
    TrafficDumper& dumper_;
  };

  static void build(TrafficDumper& dumper, pipeline::StageChain& chain) {
    chain.append(std::make_unique<Admit>(dumper));
    chain.append(std::make_unique<Capture>(dumper));
  }
};

TrafficDumper::TrafficDumper(Simulator* sim, std::string name, Options options)
    : sim_(sim),
      name_(std::move(name)),
      options_(options),
      port_(std::make_unique<Port>(sim, this, 0)),
      core_busy_until_(static_cast<std::size_t>(std::max(1, options.cores)), 0) {
  DumperPipeline::build(*this, rx_pipeline_);
}

void TrafficDumper::handle_packet(int in_port, Packet pkt) {
  // No stage moves the frame out (captures copy into the slab), so the
  // guard recycles the wire buffer on every path.
  ScopedPacketReclaim reclaim(pkt);
  pipeline::FrameMeta meta;
  meta.in_port = in_port;
  meta.ingress_ts = sim_->now();
  rx_pipeline_.run(pkt, meta);
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

bool TrafficDumper::write_pcap(const std::string& path) const {
  PcapWriter writer;
  if (!writer.open(path)) return false;
  for (const CaptureRecord& record : capture_.records) {
    if (!writer.write(capture_.frame(record), record.captured_at,
                      record.orig_len)) {
      return false;
    }
  }
  return true;
}

}  // namespace lumina
