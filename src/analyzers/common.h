// Shared helpers for the built-in analyzers (§4).
#pragma once

#include <map>

#include "orchestrator/trace.h"

namespace lumina {

/// Comparator so FlowKey can index ordered maps.
struct FlowKeyLess {
  bool operator()(const FlowKey& a, const FlowKey& b) const {
    if (a.src_ip != b.src_ip) return a.src_ip < b.src_ip;
    if (a.dst_ip != b.dst_ip) return a.dst_ip < b.dst_ip;
    return a.dst_qpn < b.dst_qpn;
  }
};

/// True when `p` is the Go-Back-N (sequence-error) NAK for write/send
/// traffic. Remote-access NAKs are a different, fatal animal.
inline bool is_nak_packet(const TracePacket& p) {
  return p.view.bth.opcode == IbOpcode::kAcknowledge && p.view.aeth &&
         p.view.aeth->is_seq_nak();
}

inline bool is_ack_packet(const TracePacket& p) {
  return p.view.bth.opcode == IbOpcode::kAcknowledge && p.view.aeth &&
         p.view.aeth->is_ack();
}

inline bool is_read_request_packet(const TracePacket& p) {
  return p.view.bth.opcode == IbOpcode::kReadRequest;
}

inline bool is_cnp_packet(const TracePacket& p) {
  return p.view.bth.opcode == IbOpcode::kCnp;
}

/// True when `p` travels in the reverse direction of `flow` (responder to
/// requester control traffic for a requester->responder data flow).
inline bool is_reverse_of(const TracePacket& p, const FlowKey& flow) {
  return p.view.src_ip == flow.dst_ip && p.view.dst_ip == flow.src_ip;
}

}  // namespace lumina
