// A FIFO of frames that keeps its storage.
//
// std::deque<Packet> allocates a block every few pushes and frees one
// every few pops while frames stream through it. PacketFifo is a
// power-of-two ring instead. It keeps its capacity across pops and
// doubles when a push finds it full, so it allocates only when its
// backlog reaches a new high-water mark. A popped slot holds the
// moved-from Packet, whose vector owns no buffer, until a later push
// overwrites it.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "packet/roce_packet.h"

namespace lumina {

class PacketFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  void push_back(Packet&& pkt) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(pkt);
    ++size_;
  }

  /// Moves the oldest frame out. Requires !empty().
  Packet pop_front() {
    Packet pkt = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return pkt;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void grow() {
    std::vector<Packet> bigger(slots_.empty() ? kInitialCapacity
                                              : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<Packet> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lumina
