// Network topology primitives: Node, Port, Link.
//
// A Port models one direction-pair of a full-duplex link: it owns an egress
// FIFO with a byte cap (the MMU buffer on switches, the TX ring on NICs),
// serializes packets at the link rate, and delivers them to the peer port's
// owner after the propagation delay.
//
// Each transmission schedules its delivery. Its serialization-complete
// event is scheduled only when it has work: a drained callback to run or a
// frame waiting in the queue. Otherwise the port reserves the event's id
// (Simulator::reserve_id) and files it under that id only if a frame
// arrives before the slot has passed, so every event keeps the (when, id)
// it would have had (docs/simulator.md, "Deferred completions").
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "net/packet_fifo.h"
#include "packet/roce_packet.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace lumina {

class Port;

/// Anything attached to the network: hosts (RNIC), switch, dumper nodes.
class Node {
 public:
  virtual ~Node() = default;

  /// Called at packet arrival time, after link serialization + propagation.
  virtual void handle_packet(int in_port, Packet pkt) = 0;
};

struct LinkParams {
  double gbps = 100.0;        ///< Link rate.
  Tick propagation = 250;     ///< One-way propagation delay (ns).
};

struct PortCounters {
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t drops = 0;  ///< Egress queue overflow drops.
  std::size_t max_queued_bytes = 0;  ///< High-water mark of the egress FIFO.
};

class Port {
 public:
  Port(Simulator* sim, Node* owner, int index)
      : sim_(sim), owner_(owner), index_(index) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Wires this port to `peer` (one direction). Use `connect()` for both.
  void attach(Port* peer, LinkParams params) {
    peer_ = peer;
    params_ = params;
  }

  /// Enqueues a packet for transmission. Packets beyond the egress byte cap
  /// are dropped (tail drop), mirroring an MMU with a fixed per-port buffer.
  void send(Packet pkt);

  /// Serialization delay of `pkt` on this link.
  Tick serialization_delay(const Packet& pkt) const {
    return tx_time_ns(pkt.wire_size());
  }

  /// Time at which the link becomes free given the current queue.
  Tick busy_until() const { return busy_until_; }
  bool idle() const { return queue_.empty() && busy_until_ <= sim_->now(); }

  /// Invoked every time the egress queue fully drains (link went idle).
  /// A port with a callback schedules every serialization-complete event.
  void set_drained_callback(std::function<void()> cb) {
    drained_cb_ = std::move(cb);
  }

  void set_queue_byte_cap(std::size_t cap) { queue_byte_cap_ = cap; }
  std::size_t queued_bytes() const { return queued_bytes_; }

  /// Takes the link down (the injector's link-flap event). New sends still
  /// enqueue — subject to the byte cap, so a long outage tail-drops — but
  /// nothing transmits until set_link_up(). A frame already serializing
  /// finishes (the wire holds it). With `drop_queued` the egress FIFO is
  /// emptied on the way down (counted in counters().drops); returns how
  /// many packets that discarded.
  std::size_t set_link_down(bool drop_queued);

  /// Brings the link back up and resumes transmission of anything queued.
  void set_link_up();
  bool link_up() const { return link_up_; }

  const PortCounters& counters() const { return counters_; }
  const LinkParams& link() const { return params_; }
  int index() const { return index_; }
  Node* owner() const { return owner_; }

  /// Called by the peer when a packet finishes arriving here.
  void deliver(Packet pkt);

 private:
  Tick tx_time_ns(std::size_t wire_bytes) const {
    // bytes * 8 bits / (gbps Gbit/s) = bytes * 8 / gbps ns.
    return static_cast<Tick>(static_cast<double>(wire_bytes) * 8.0 /
                             params_.gbps);
  }

  void start_transmission();
  /// Settles a deferred completion before a frame is queued: files it in
  /// its reserved slot, or, if the slot has passed, releases the id and
  /// leaves the port idle as the completion would have.
  void settle_deferred_completion();

  Simulator* sim_;
  Node* owner_;
  int index_;
  Port* peer_ = nullptr;
  LinkParams params_;
  PacketFifo queue_;
  std::size_t queued_bytes_ = 0;
  std::size_t queue_byte_cap_ = 4 * 1024 * 1024;
  bool transmitting_ = false;
  bool link_up_ = true;
  Tick busy_until_ = 0;
  // Reserved id of the deferred completion of the frame last started;
  // 0 when none is held. Held only while the queue is empty.
  std::uint64_t done_id_ = 0;
  PortCounters counters_;
  std::function<void()> drained_cb_;
};

/// Wires two ports together in both directions with the same link params.
inline void connect(Port& a, Port& b, LinkParams params) {
  a.attach(&b, params);
  b.attach(&a, params);
}

}  // namespace lumina
