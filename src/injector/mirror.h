// Mirror engine: metadata embedding and per-packet load balancing (§3.4).
//
// Every RoCE packet entering the switch ingress pipeline is cloned; the
// clone has three pieces of data-plane metadata embedded into header fields
// that are (a) unused by offline analysis and (b) masked out of the iCRC:
//
//   TTL        <- event type applied to the original packet
//   src MAC    <- 48-bit global mirror sequence number
//   dst MAC    <- 48-bit ingress timestamp (ns)
//
// The clone's UDP destination port is also rewritten to a pseudo-random
// value so the dumper hosts' RSS spreads packets across all CPU cores, and
// the clone is forwarded to the dumper ports in round robin.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "packet/roce_packet.h"
#include "util/random.h"
#include "util/time.h"

namespace lumina {

/// Metadata recovered from a mirrored packet.
struct MirrorMeta {
  std::uint64_t mirror_seq = 0;
  Tick ingress_timestamp = 0;
  EventType event = EventType::kNone;
};

/// Decodes embedded metadata from a mirrored frame's rewritten fields.
MirrorMeta extract_mirror_meta(const Packet& pkt);

class MirrorEngine {
 public:
  explicit MirrorEngine(std::uint64_t rng_seed = 1) : rng_(rng_seed) {}

  /// The switch egress ports toward the dumper nodes, taken in turn.
  void set_targets(std::vector<int> port_indices);
  bool has_targets() const { return !targets_.empty(); }

  /// Whether to randomize the clone's UDP destination port (RSS trick).
  /// On by default; the dumper-load-balancing bench ablates it.
  void set_randomize_udp_port(bool on) { randomize_udp_port_ = on; }

  /// Clones `original`, embeds metadata, picks a target port. Returns the
  /// clone and the chosen egress port index.
  struct Mirrored {
    Packet clone;
    int port_index;
  };
  Mirrored mirror(const Packet& original, EventType event, Tick ingress_ts);

  std::uint64_t mirrored_count() const { return next_seq_; }

 private:
  int pick_target();

  std::vector<int> targets_;
  std::size_t next_target_ = 0;
  std::uint64_t next_seq_ = 0;
  bool randomize_udp_port_ = true;
  Rng rng_;
};

}  // namespace lumina
