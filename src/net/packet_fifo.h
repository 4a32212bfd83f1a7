// A FIFO that keeps its storage.
//
// std::deque<Packet> allocates a block every few pushes and frees one
// every few pops while frames stream through it. RingFifo is a
// power-of-two ring instead. It keeps its capacity across pops and
// doubles when a push finds it full, so it allocates only when its
// backlog reaches a new high-water mark. A popped slot holds the
// moved-from element (a Packet's vector then owns no buffer) until a
// later push overwrites it. PacketFifo is the ring of frames every Port
// and RNIC queues; the switch parks its fused departures in one too.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "packet/roce_packet.h"

namespace lumina {

template <typename T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  void push_back(T&& item) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(item);
    ++size_;
  }

  /// Moves the oldest element out. Requires !empty().
  T pop_front() {
    T item = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return item;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void grow() {
    std::vector<T> bigger(slots_.empty() ? kInitialCapacity
                                         : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

using PacketFifo = RingFifo<Packet>;

}  // namespace lumina
