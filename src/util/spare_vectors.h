// Spare vector capacity, kept per thread from one run to the next.
//
// A run builds three per-frame stores: each dumper's capture slab and
// record vector, and the trace's record vector (docs/packet.md, "Capture
// store and trace records"). Built from empty, they grow by doubling and
// their pages fault in again on every run. SpareVectors<T> keeps the
// capacity a run gives back for the next run on the same thread: take()
// hands out the largest spare vector, and give() keeps a vector's capacity
// and drops its elements. Only capacity carries over, so nothing a run
// computes depends on what the stash holds.
//
// Bounds: a thread keeps at most kMaxKept vectors per element type. When
// that is full, a larger vector replaces the smallest. A vector above
// kMaxBytes of capacity is freed, not kept.
//
// Lifetime: each thread has its own stash, built on first use and
// destroyed at thread exit; no stash is shared between threads. A vector
// given back after its thread's stash is destroyed (by a thread_local or
// static object destroyed later) is freed normally: a trivially
// destructible flag beside the stash records that it is gone, so nothing
// touches the destroyed stash.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace lumina {

template <typename T>
class SpareVectors {
 public:
  static constexpr std::size_t kMaxKept = 8;
  static constexpr std::size_t kMaxBytes = std::size_t{64} << 20;

  /// The largest spare vector this thread holds, empty; a vector with no
  /// capacity when the thread holds none.
  static std::vector<T> take() {
    std::vector<std::vector<T>>* kept = stash();
    if (kept == nullptr || kept->empty()) return {};
    const auto largest =
        std::max_element(kept->begin(), kept->end(), by_capacity);
    std::vector<T> out = std::move(*largest);
    kept->erase(largest);
    return out;
  }

  /// Keeps `v`'s capacity for a later take() on this thread when the
  /// bounds allow; frees it otherwise.
  static void give(std::vector<T> v) {
    if (v.capacity() == 0 || v.capacity() > kMaxBytes / sizeof(T)) return;
    std::vector<std::vector<T>>* kept = stash();
    if (kept == nullptr) return;
    v.clear();
    if (kept->size() < kMaxKept) {
      kept->push_back(std::move(v));
      return;
    }
    const auto smallest =
        std::min_element(kept->begin(), kept->end(), by_capacity);
    if (smallest->capacity() < v.capacity()) *smallest = std::move(v);
  }

 private:
  struct Stash {
    Stash() { kept.reserve(kMaxKept); }  // give() never reallocates it
    Stash(const Stash&) = delete;
    Stash& operator=(const Stash&) = delete;
    ~Stash() { destroyed = true; }
    std::vector<std::vector<T>> kept;
  };

  static bool by_capacity(const std::vector<T>& a, const std::vector<T>& b) {
    return a.capacity() < b.capacity();
  }

  /// This thread's stash, built on first use; null once it is destroyed.
  static std::vector<std::vector<T>>* stash() {
    if (destroyed) return nullptr;
    thread_local Stash stash;
    return &stash.kept;
  }

  static inline thread_local bool destroyed = false;
};

}  // namespace lumina
