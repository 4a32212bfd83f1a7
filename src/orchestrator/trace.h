// Reconstructed packet trace (§3.5).
//
// The orchestrator orders the packets captured by every traffic dumper by
// the mirror sequence number the event injector embedded — no clock
// synchronization is needed because every timestamp comes from the single
// switch clock. Mirror copies leave the switch in sequence order through
// FIFO ports, so each dumper's capture is already one sorted run, and
// reconstruct_trace() builds the trace as a one-pass merge of those runs
// and runs the integrity check in the same pass.
//
// A trace record does not own its bytes: `pkt` views the dumpers' capture
// slabs, which reconstruct_trace() moves into a store the PacketTrace
// shares with its copies. A record's bytes therefore live as long as any
// copy of its trace, and no longer (docs/packet.md, "Capture store and
// trace records").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "injector/event_table.h"
#include "injector/mirror.h"
#include "packet/roce_packet.h"
#include "util/time.h"

namespace lumina {

/// A trace record's frame bytes: the trimmed capture, UDP port restored.
struct FrameBytes {
  std::span<const std::uint8_t> bytes;

  std::size_t size() const { return bytes.size(); }
};

struct TracePacket {
  FrameBytes pkt;  ///< Views the trace's frame store.
  RoceView view;   ///< Parsed headers (the trimmed parser's view).
  MirrorMeta meta; ///< mirror_seq / switch ingress timestamp / event type.
  std::size_t orig_len = 0;
  /// Departure time of a packet a `delay` event held at the switch
  /// (ingress timestamp + injected hold, stamped by the orchestrator from
  /// the injector's release log); 0 for packets that left on the normal
  /// pipeline schedule.
  Tick released_at = 0;

  Tick time() const { return meta.ingress_timestamp; }
  /// When the receiver actually saw this packet, modulo the constant
  /// pipeline + link latency every packet shares: the release time for
  /// delay-held packets, the ingress timestamp otherwise. Replaying a
  /// trace in (effective_time, mirror_seq) order reproduces the receiver's
  /// view — identical to mirror order on delay-free traces.
  Tick effective_time() const {
    return released_at > 0 ? released_at : meta.ingress_timestamp;
  }
  bool is_data() const { return is_data_opcode(view.bth.opcode); }
  FlowKey flow() const {
    return FlowKey{view.src_ip, view.dst_ip, view.bth.dest_qpn};
  }
};

/// The §3.5 integrity check: all three conditions must hold before a trace
/// is admitted for analysis.
struct IntegrityReport {
  bool seqnums_consecutive = false;
  bool matches_mirrored_count = false;
  bool matches_roce_rx_count = false;
  std::uint64_t trace_packets = 0;
  std::uint64_t injector_mirrored = 0;
  std::uint64_t injector_roce_rx = 0;
  std::uint64_t missing_seqnums = 0;

  bool ok() const {
    return seqnums_consecutive && matches_mirrored_count &&
           matches_roce_rx_count;
  }
  std::string to_string() const;
  bool operator==(const IntegrityReport&) const = default;
};

struct PacketTrace {
  std::vector<TracePacket> packets;  ///< Sorted by mirror sequence number.
  /// The byte slabs the records' `pkt` views point into. Copies of a trace
  /// share them; they are never written once a record points into them.
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> slabs;

  std::size_t size() const { return packets.size(); }
  const TracePacket& operator[](std::size_t i) const { return packets[i]; }
  auto begin() const { return packets.begin(); }
  auto end() const { return packets.end(); }

  /// Appends `record` with its `pkt` pointing at a copy of `bytes` that
  /// this trace owns (traces built by hand, e.g. in tests).
  void append(std::span<const std::uint8_t> bytes, TracePacket record);
};

struct CaptureStore;  // dumper/dumper.h

/// Builds `trace` from the dumpers' capture stores, one store per dumper,
/// and returns the §3.5 integrity report against the injector's mirrored
/// and RoCE-received counts. The stores' byte slabs move into the trace.
/// Each record's view is the trimmed parser's decode of its kept bytes,
/// read in place in the slab; frames that parser rejects are left out. The
/// order equals a stable sort of the concatenated stores by mirror_seq: a
/// store that is not already in mirror order is stably sorted first, and
/// equal sequence numbers keep dumper order.
IntegrityReport reconstruct_trace(std::vector<CaptureStore> captures,
                                  std::uint64_t injector_mirrored,
                                  std::uint64_t injector_roce_rx,
                                  PacketTrace& trace);

}  // namespace lumina
