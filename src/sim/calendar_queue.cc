#include "sim/calendar_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace lumina {

CalendarQueue::CalendarQueue() : buckets_(kMinBuckets), mask_(kMinBuckets - 1) {}

void CalendarQueue::push(SimEvent ev) {
  maybe_grow();
  const std::uint64_t year = year_of(ev.when);
  if (size_ == 0 || year < search_year_) search_year_ = year;
  insert(std::move(ev));
  ++size_;
  cache_valid_ = false;
}

void CalendarQueue::insert(SimEvent ev) {
  Bucket& bucket = buckets_[bucket_of(year_of(ev.when))];
  std::vector<SimEvent>& items = bucket.items;
  if (bucket.head == items.size() && bucket.head != 0) {
    items.clear();
    bucket.head = 0;
  }
  // Events usually arrive in increasing time order, so the common case is a
  // plain append; ties and re-arms walk back a few slots at most.
  std::size_t pos = items.size();
  while (pos > bucket.head && precedes(ev, items[pos - 1])) --pos;
  items.insert(items.begin() + static_cast<std::ptrdiff_t>(pos),
               std::move(ev));
}

SimEvent CalendarQueue::pop_min() {
  if (!cache_valid_) locate_min();
  Bucket& bucket = buckets_[cached_bucket_];
  SimEvent ev = std::move(bucket.items[bucket.head]);
  ++bucket.head;
  if (bucket.head == bucket.items.size()) {
    bucket.items.clear();
    bucket.head = 0;
  } else if (bucket.head >= 64 && bucket.head * 2 >= bucket.items.size()) {
    // Reclaim the consumed prefix once it dominates the vector.
    bucket.items.erase(bucket.items.begin(),
                       bucket.items.begin() +
                           static_cast<std::ptrdiff_t>(bucket.head));
    bucket.head = 0;
  }
  --size_;
  cache_valid_ = false;
  // More events may share the popped year; resuming the scan there keeps
  // the next locate O(1) in the common case.
  search_year_ = year_of(ev.when);
  maybe_shrink();
  return ev;
}

const SimEvent* CalendarQueue::peek_min() {
  if (size_ == 0) return nullptr;
  if (!cache_valid_) locate_min();
  return &buckets_[cached_bucket_].front();
}

bool CalendarQueue::locate_min() {
  if (size_ == 0) return false;
  // Walk the calendar one year at a time from the last known position. A
  // bucket's sorted front is its minimum, so front.year == y identifies the
  // global minimum (all earlier years were just proven empty).
  std::uint64_t year = search_year_;
  for (std::size_t scanned = 0; scanned <= mask_; ++scanned, ++year) {
    const Bucket& bucket = buckets_[bucket_of(year)];
    if (bucket.has_live() && year_of(bucket.front().when) == year) {
      cached_bucket_ = bucket_of(year);
      search_year_ = year;
      cache_valid_ = true;
      return true;
    }
  }
  // Sparse tail: no event within a full calendar round. Direct-search every
  // bucket front for the global minimum and jump the scan position to it.
  const SimEvent* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& bucket = buckets_[i];
    if (!bucket.has_live()) continue;
    if (best == nullptr || precedes(bucket.front(), *best)) {
      best = &bucket.front();
      best_bucket = i;
    }
  }
  cached_bucket_ = best_bucket;
  search_year_ = year_of(best->when);
  cache_valid_ = true;
  return true;
}

void CalendarQueue::maybe_grow() {
  if (size_ + 1 > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
    resize_table(buckets_.size() * 2);
  }
}

void CalendarQueue::maybe_shrink() {
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 8) {
    resize_table(buckets_.size() / 2);
  }
}

void CalendarQueue::resize_table(std::size_t new_nbuckets) {
  std::vector<SimEvent> all;
  all.reserve(size_);
  for (Bucket& bucket : buckets_) {
    for (std::size_t i = bucket.head; i < bucket.items.size(); ++i) {
      all.push_back(std::move(bucket.items[i]));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SimEvent& a, const SimEvent& b) { return precedes(a, b); });

  // Re-tune the bucket width to the observed event spacing: one event per
  // bucket-year on average. Width is a power of two so bucket mapping stays
  // a shift+mask. This is a pure function of the pending set — resize
  // decisions replay identically on every run.
  if (all.size() >= 2) {
    const std::uint64_t span = static_cast<std::uint64_t>(
        all.back().when - all.front().when);
    const std::uint64_t gap = span / (all.size() - 1);
    shift_ = gap == 0
                 ? 0
                 : std::min(kMaxShift, static_cast<int>(std::bit_width(gap)));
  }

  buckets_.clear();
  buckets_.resize(new_nbuckets);
  mask_ = new_nbuckets - 1;
  cache_valid_ = false;
  if (!all.empty()) search_year_ = year_of(all.front().when);
  // Globally sorted input appends in order within each bucket: O(1) each.
  for (SimEvent& ev : all) {
    insert(std::move(ev));
  }
}

}  // namespace lumina
