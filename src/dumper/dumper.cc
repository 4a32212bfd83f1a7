#include "dumper/dumper.h"

#include <algorithm>

#include "packet/packet_arena.h"
#include "packet/pcap_writer.h"

namespace lumina {
namespace {

/// Toeplitz-flavored RSS stand-in: mixes the fields real RSS hashes.
std::uint32_t rss_hash(const RoceView& v) {
  std::uint64_t h = v.src_ip.value;
  h = h * 0x9e3779b97f4a7c15ULL + v.dst_ip.value;
  h = h * 0x9e3779b97f4a7c15ULL + v.udp_src_port;
  h = h * 0x9e3779b97f4a7c15ULL + v.udp_dst_port;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

}  // namespace

// The dumper's rx pipeline: two stages that handle_packet walks each
// delivered frame through (same construction as SwitchPipeline in
// injector/switch.cc).
struct DumperPipeline {
  using FrameMeta = pipeline::FrameMeta;
  using StageContract = pipeline::StageContract;

  /// NIC/ring admission: RSS core selection and the finite per-core
  /// service model. Ring overflow -> NIC discard. Stores the admitted
  /// frame's core in the frame metadata.
  class Admit : public pipeline::Stage {
   public:
    explicit Admit(TrafficDumper& dumper) : dumper_(dumper) {}
    const char* name() const override { return "admit"; }
    StageContract contract() const override { return {.provides_view = true}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      TrafficDumper& d = dumper_;
      if (d.terminated_) return false;
      ++d.counters_.received;

      const auto view = parse_roce(pkt);
      const Tick now = meta.ingress_ts;
      const std::size_t core =
          view ? rss_hash(*view) % d.core_busy_until_.size() : 0;

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
      meta.core = core;
      return true;
    }

   private:
    TrafficDumper& dumper_;
  };

  /// Trim + store: copies the trimmed headers straight into a new capture
  /// store entry (or moves small frames whole) along with the embedded
  /// mirror metadata. Retires every frame.
  class Capture : public pipeline::Stage {
   public:
    explicit Capture(TrafficDumper& dumper) : dumper_(dumper) {}
    const char* name() const override { return "capture"; }
    StageContract contract() const override { return {.needs_view = true}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      TrafficDumper& d = dumper_;
      DumpedPacket& dumped = d.packets_.emplace_back();
      dumped.orig_len = pkt.size();
      dumped.captured_at = meta.ingress_ts;
      dumped.meta = extract_mirror_meta(pkt);
      if (pkt.size() > d.options_.trim_bytes) {
        // Copy the trimmed headers out so the full-size wire buffer
        // recycles instead of being pinned in the capture store for the
        // whole run. (Deliberately not arena-backed: the copy lives in
        // the store for the rest of the run, so recycled capacity would
        // just be pinned.)
        pkt.clone_into(dumped.pkt, d.options_.trim_bytes);
      } else {
        dumped.pkt = std::move(pkt);
      }
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
  // Discard paths and trim-copies leave the wire buffer behind for the
  // guard to recycle; untrimmed captures move the frame into the store.
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
  for (auto& dumped : packets_) {
    if (dumped.pkt.size() >= off::kUdpDstPort + 2) {
      restore_roce_udp_port(dumped.pkt);
    }
  }
}

bool TrafficDumper::write_pcap(const std::string& path) const {
  PcapWriter writer;
  if (!writer.open(path)) return false;
  for (const auto& dumped : packets_) {
    if (!writer.write(dumped.pkt, dumped.captured_at, dumped.orig_len)) {
      return false;
    }
  }
  return true;
}

}  // namespace lumina
