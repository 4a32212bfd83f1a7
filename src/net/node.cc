#include "net/node.h"

#include "packet/packet_arena.h"

namespace lumina {

void Port::send(Packet pkt) {
  if (peer_ == nullptr) {  // unwired port: blackhole
    PacketArena::reclaim(std::move(pkt));
    return;
  }
  if (queued_bytes_ + pkt.size() > queue_byte_cap_) {
    ++counters_.drops;
    PacketArena::reclaim(std::move(pkt));
    return;
  }
  if (done_id_ != 0) settle_deferred_completion();
  queued_bytes_ += pkt.size();
  counters_.max_queued_bytes =
      std::max(counters_.max_queued_bytes, queued_bytes_);
  queue_.push_back(std::move(pkt));
  if (!transmitting_ && link_up_) start_transmission();
}

void Port::settle_deferred_completion() {
  if (sim_->passed(busy_until_, done_id_)) {
    // The completion would have run already, found the queue empty and
    // only cleared transmitting_.
    sim_->release_id(done_id_);
    transmitting_ = false;
  } else {
    sim_->schedule_reserved(busy_until_, done_id_,
                            [this] { start_transmission(); });
  }
  done_id_ = 0;
}

std::size_t Port::set_link_down(bool drop_queued) {
  link_up_ = false;
  if (!drop_queued) return 0;
  const std::size_t dropped = queue_.size();
  counters_.drops += dropped;
  while (!queue_.empty()) PacketArena::reclaim(queue_.pop_front());
  queued_bytes_ = 0;
  return dropped;
}

void Port::set_link_up() {
  if (link_up_) return;
  link_up_ = true;
  // A frame serializing at flap time still owns the wire; its completion
  // continuation restarts the queue. Otherwise kick it here.
  if (!transmitting_ && !queue_.empty()) start_transmission();
}

void Port::start_transmission() {
  if (!link_up_) {
    transmitting_ = false;
    return;
  }
  if (queue_.empty()) {
    transmitting_ = false;
    if (drained_cb_) drained_cb_();
    return;
  }
  transmitting_ = true;
  Packet pkt = queue_.pop_front();
  queued_bytes_ -= pkt.size();

  const Tick tx_delay = tx_time_ns(pkt.wire_size());
  const Tick done = sim_->now() + tx_delay;
  busy_until_ = done;
  ++counters_.tx_packets;
  counters_.tx_bytes += pkt.size();

  Port* peer = peer_;
  const Tick arrive = done + params_.propagation;
  // A frame-carrying closure must fit the inline callback buffer, or every
  // hop allocates.
  static_assert(sizeof(Packet) + sizeof(Port*) <= InlineCallback::kInlineBytes);
  sim_->schedule_at(arrive, [peer, p = std::move(pkt)]() mutable {
    peer->deliver(std::move(p));
  });
  // The completion is work only for a drained callback or a waiting
  // frame; otherwise hold its id until a frame arrives (send()).
  if (drained_cb_ || !queue_.empty()) {
    sim_->schedule_at(done, [this] { start_transmission(); });
  } else {
    done_id_ = sim_->reserve_id();
  }
}

void Port::deliver(Packet pkt) {
  ++counters_.rx_packets;
  counters_.rx_bytes += pkt.size();
  owner_->handle_packet(index_, std::move(pkt));
}

}  // namespace lumina
