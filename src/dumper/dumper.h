// Traffic dumper node (§3.4): one host of the traffic dumper pool.
//
// Models the DPDK capture tool: mirrored packets arrive on the NIC, RSS
// hashes the (addresses, UDP ports) tuple onto a CPU core, and each core
// copies the first `trim_bytes` bytes into a pre-allocated ring. A core
// has finite per-packet service capacity; when its ring backs up the NIC
// discards (the rx_discards_phy situation §3.4 describes for the naive
// two-host design). Because the mirror engine randomizes the UDP
// destination port, RSS spreads even a single flow across all cores.
//
// The dumper copies and never decodes: RSS reads its tuple at fixed
// offsets. Captures land in a CaptureStore: the kept bytes of every frame
// back to back in one slab, plus one record per frame that locates them
// and carries its mirror metadata; reconstruct_trace() decodes each
// record's kept bytes (docs/packet.md, "Capture store and trace records").
// A capture copies at most `trim_bytes` into the slab, so every delivered
// wire buffer recycles.
//
// On TERM the dumper restores the UDP destination port of every captured
// packet to 4791. The orchestrator then takes the capture store
// (take_capture) and merges every dumper's captures into one trace, which
// results_io persists as trace.pcap.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "injector/mirror.h"
#include "net/node.h"
#include "sim/simulator.h"

namespace lumina {

/// One captured frame: where its kept bytes sit in the slab, and what the
/// dumper learned about it on arrival. reconstruct_trace() decodes the
/// kept bytes.
struct CaptureRecord {
  std::size_t offset = 0;    ///< First kept byte in CaptureStore::bytes.
  std::size_t length = 0;    ///< Bytes kept: min(orig_len, trim_bytes).
  std::size_t orig_len = 0;  ///< Length on the wire.
  Tick captured_at = 0;      ///< Host capture time (not the switch timestamp).
  MirrorMeta meta;           ///< Metadata embedded by the mirror engine.
};
static_assert(sizeof(CaptureRecord) <= 56);

/// A dumper's captures in arrival order, which is mirror order: mirror
/// copies leave the switch in sequence order through FIFO ports.
struct CaptureStore {
  std::vector<std::uint8_t> bytes;     ///< Kept bytes, back to back.
  std::vector<CaptureRecord> records;  ///< One per captured frame.

  std::span<const std::uint8_t> frame(const CaptureRecord& record) const {
    return std::span(bytes).subspan(record.offset, record.length);
  }
};

struct DumperCounters {
  std::uint64_t received = 0;
  std::uint64_t captured = 0;
  std::uint64_t discarded = 0;  ///< Ring overflow (NIC rx discards).
};

class TrafficDumper : public Node {
 public:
  struct Options {
    int cores = 8;
    Tick per_packet_service = 250;   ///< Per-core copy cost per packet.
    std::size_t ring_capacity = 4096;  ///< Packets buffered per core.
    std::size_t trim_bytes = 128;    ///< §5: first 128 B carry all headers.
  };

  TrafficDumper(Simulator* sim, Options options);

  Port& port() { return *port_; }

  // handle_packet admits each delivered frame to an RSS core, then
  // captures it unless that core's ring is full.
  void handle_packet(int in_port, Packet pkt) override;

  /// TERM from the orchestrator: restores the UDP destination port of
  /// every capture in the slab.
  void terminate();

  const CaptureStore& capture() const { return capture_; }
  /// Hands the capture store to the caller (trace reconstruction); the
  /// dumper holds no captures afterwards.
  CaptureStore take_capture() { return std::exchange(capture_, {}); }
  const DumperCounters& counters() const { return counters_; }

 private:
  Simulator* sim_;
  Options options_;
  std::unique_ptr<Port> port_;
  std::vector<Tick> core_busy_until_;
  CaptureStore capture_;
  DumperCounters counters_;
  bool terminated_ = false;
};

}  // namespace lumina
