// Timer heap — the simulator's timer store.
//
// Retransmission timers are the one event population that is almost
// always cancelled before it fires: every ACK disarms and re-arms its QP's
// RTO. Keeping them out of the calendar queue keeps those tombstones out
// of its buckets (docs/simulator.md, "What the calendar queue, the timer
// heap and the arena buy"). The store is a binary min-heap of
// (when, id, slot) entries ordered by (when, id); each callback sits in a
// recycled slot so the heap moves 24-byte entries, not closures.
//
// The Simulator merges the heap's due stream with the calendar queue in
// strict (when, id) order, so a timer fires in exactly the slot a
// schedule_at event would have taken. A cancelled timer is not removed
// eagerly: its id is dead in the simulator's EventIdTable, and peek_due()
// reclaims it only once it is the heap minimum ahead of the caller's
// limit event — the moment the calendar queue would have popped its
// tombstone — so stored() and the simulator's queue-depth telemetry match
// the single-queue path bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_id_table.h"
#include "sim/inline_callback.h"
#include "util/time.h"

namespace lumina {

class TimerHeap {
 public:
  /// Arms a timer at (deadline, id). O(log n).
  void arm(Tick deadline, std::uint64_t id, InlineCallback cb);

  /// Locates the next live timer strictly preceding the caller's limit
  /// event in (when, id) order, reclaiming timers whose ids are dead in
  /// `ids` as they surface at the top on the way. Returns false when no
  /// live timer precedes (limit_when, limit_id). The Simulator calls this
  /// before every event it fires and the answer is nearly always "the top
  /// is later", so only that test is inline: inlining the reclaim loop
  /// into the run loop cost perfbench's `incast64` and `table2` about 1.5%
  /// runs/s (Release, 4-core x86).
  bool peek_due(Tick limit_when, std::uint64_t limit_id,
                const EventIdTable& ids) {
    if (heap_.empty() || heap_.front().when > limit_when) return false;
    return find_due(limit_when, limit_id, ids);
  }

  /// (when, id) of the timer located by the last successful peek_due().
  Tick due_when() const { return heap_.front().when; }
  std::uint64_t due_id() const { return heap_.front().id; }

  /// Removes the timer located by peek_due() and returns its callback.
  InlineCallback pop_due() {
    ++fired_total_;
    return pop_top();
  }

  /// Stored timers, live + cancelled-but-unreclaimed: the store's share
  /// of the simulator's queue-depth telemetry.
  std::size_t stored() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  // Telemetry for bench/qp_scaling and the unit tests.
  std::uint64_t armed_total() const { return armed_total_; }
  std::uint64_t fired_total() const { return fired_total_; }
  std::uint64_t reclaimed_total() const { return reclaimed_total_; }
  std::size_t max_stored() const { return max_stored_; }
  /// Callback slots ever allocated; freed slots are reused.
  std::size_t slot_capacity() const { return callbacks_.size(); }

 private:
  struct Entry {
    Tick when = 0;
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
  };
  // std::push_heap/pop_heap keep a max-heap; ordering by "fires later"
  // puts the earliest (when, id) at the front.
  struct FiresLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.id > b.id;
    }
  };

  /// peek_due() past its inline test: the reclaim loop.
  bool find_due(Tick limit_when, std::uint64_t limit_id,
                const EventIdTable& ids);

  /// Removes the heap minimum, frees its slot and returns its callback.
  InlineCallback pop_top();

  std::vector<Entry> heap_;
  std::vector<InlineCallback> callbacks_;
  std::vector<std::uint32_t> free_slots_;

  std::size_t max_stored_ = 0;
  std::uint64_t armed_total_ = 0;
  std::uint64_t fired_total_ = 0;
  std::uint64_t reclaimed_total_ = 0;
};

}  // namespace lumina
