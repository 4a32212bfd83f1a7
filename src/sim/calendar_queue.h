// Calendar queue — the simulator's pending-event structure.
//
// A calendar queue (Brown 1988) hashes events into time buckets the way a
// desk calendar files appointments onto day pages: bucket index is
// (when / width) mod nbuckets, and dequeue walks the calendar one "day" at
// a time starting from the last-popped day. Links and timers produce
// tightly clustered timestamps, so with a width tuned to the observed
// inter-event gap both enqueue and dequeue are O(1) amortized — versus the
// O(log n) sift of the binary heap this replaced.
//
// Ordering contract: strict (when, id) lexicographic order, identical to
// the (time, seq) order of ReferenceScheduler. Every structural decision
// (bucket count, width, resize points) is a pure function of the push/pop
// sequence, so runs stay bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_callback.h"
#include "util/time.h"

namespace lumina {

/// One pending event. `id` doubles as the same-tick tie-breaker: ids are
/// allocated in scheduling order, so (when, id) order equals the documented
/// (time, seq) FIFO-within-tick order.
struct SimEvent {
  Tick when = 0;
  std::uint64_t id = 0;
  InlineCallback cb;
};

class CalendarQueue {
 public:
  CalendarQueue();

  void push(SimEvent ev);

  /// Removes and returns the minimum-(when, id) event. Pre: !empty().
  SimEvent pop_min();

  /// Minimum event without removing it; nullptr when empty. The located
  /// position is memoized, so a peek followed by pop_min() costs one scan.
  const SimEvent* peek_min();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

 private:
  /// Bucket items stay sorted ascending by (when, id); `head` marks the
  /// consumed prefix so popping the front never memmoves.
  struct Bucket {
    std::vector<SimEvent> items;
    std::size_t head = 0;

    bool has_live() const { return head < items.size(); }
    const SimEvent& front() const { return items[head]; }
  };

  static bool precedes(const SimEvent& a, const SimEvent& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.id < b.id;
  }

  std::uint64_t year_of(Tick when) const {
    return static_cast<std::uint64_t>(when) >> shift_;
  }
  std::size_t bucket_of(std::uint64_t year) const {
    return static_cast<std::size_t>(year & mask_);
  }

  void insert(SimEvent ev);
  bool locate_min();  // memoizes the min position in cached_bucket_
  void resize_table(std::size_t new_nbuckets);
  void maybe_grow();
  void maybe_shrink();

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 18;
  static constexpr int kMaxShift = 41;  // width <= ~2200 s, beyond any run

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;   // buckets_.size() - 1 (power of two)
  int shift_ = 12;         // bucket width = 2^shift_ ns
  std::size_t size_ = 0;
  std::uint64_t search_year_ = 0;  // <= year of the current minimum event
  bool cache_valid_ = false;
  std::size_t cached_bucket_ = 0;
};

}  // namespace lumina
