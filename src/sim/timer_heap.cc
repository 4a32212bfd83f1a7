#include "sim/timer_heap.h"

#include <algorithm>
#include <utility>

namespace lumina {

void TimerHeap::arm(Tick deadline, std::uint64_t id, InlineCallback cb) {
  auto slot = static_cast<std::uint32_t>(callbacks_.size());
  if (free_slots_.empty()) {
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  heap_.push_back(Entry{deadline, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
  ++armed_total_;
  max_stored_ = std::max(max_stored_, heap_.size());
}

bool TimerHeap::find_due(Tick limit_when, std::uint64_t limit_id,
                         const EventIdTable& ids) {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (top.when > limit_when ||
        (top.when == limit_when && top.id >= limit_id)) {
      return false;
    }
    if (!ids.dead(top.id)) return true;
    pop_top();
    ++reclaimed_total_;
  }
  return false;
}

InlineCallback TimerHeap::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  const std::uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  free_slots_.push_back(slot);
  return std::move(callbacks_[slot]);
}

}  // namespace lumina
