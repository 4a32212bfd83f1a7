// Hierarchical timing wheel — the simulator's timer store.
//
// Retransmission timers are the one event population the calendar queue
// handles badly at datacenter scale: 10⁶ armed RTOs are 10⁶ calendar
// entries that are almost always cancelled (every ACK disarms and re-arms
// its QP's timer), churning buckets that exist only to be tombstoned. A
// hashed hierarchical wheel in the style of Zephyr's kernel timeout
// machinery stores each timer in one of kLevels×kSlots intrusive lists
// keyed by the deadline's bit groups: arm and cancel are O(1), and a timer
// is touched at most once per level as it cascades toward slot zero.
//
// Exactness contract (unlike a classic tick-quantized wheel): level 0 is
// one-nanosecond granular, so a level-0 slot holds timers of exactly one
// deadline tick and expiry fires at the precise (when, id) the per-event
// path would have used. The Simulator merges the wheel's due stream with
// the calendar queue in strict (when, id) order, which is what keeps the
// wheel observationally invisible — goldens and telemetry counters are
// byte-identical to the schedule_after-based timer path
// (tests/unit/timer_differential_test.cc drives both).
//
// Cancelled timers are NOT unlinked eagerly. They tombstone via the
// simulator's EventIdTable (exactly like calendar events), keep cascading
// with their slot, and are reclaimed only when they surface as the wheel's
// (when, id) minimum — the precise moment the calendar queue would have
// lazily popped their tombstone. That keeps the simulator's queue-depth
// accounting bit for bit identical between the two timer paths.
//
// The Simulator consults the wheel before every event it fires, yet RTO
// timers almost never fire: nearly every consultation finds nothing due.
// The wheel therefore keeps an exact floor — a lower bound on the minimum
// candidate its scan would compute — and answers "nothing due" without
// scanning while the caller's limit lies below it. Each filing lowers the
// floor to the start of the slot window the node lands in (what the scan
// can see of it), and each scan that finds nothing raises it to that
// scan's minimum candidate, so a skipped call is exactly a scan that would
// have returned false without cascading, staging or reclaiming anything.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_id_table.h"
#include "sim/inline_callback.h"
#include "util/time.h"

namespace lumina {

class TimingWheel {
 public:
  static constexpr int kLevelBits = 6;                  // 64 slots per level
  static constexpr std::uint32_t kSlots = 1u << kLevelBits;
  static constexpr int kLevels = 8;                     // covers 2^48 ns
  static constexpr std::uint32_t kNil = 0xffffffffu;

  TimingWheel();

  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  /// Arms a timer. `deadline` must be >= the current simulated time, but
  /// may fall behind the wheel's internal cursor (which runs ahead of
  /// sim-time while reclaiming tombstones); the cursor rewinds to cover
  /// it. O(1).
  void arm(Tick deadline, std::uint64_t id, InlineCallback cb);

  /// Locates the next live timer strictly preceding the caller's limit
  /// event in (when, id) order, reclaiming tombstoned nodes (ids dead in
  /// `ids`) that surface as the wheel minimum on the way. Returns false
  /// when no live timer precedes (limit_when, limit_id). The scan never
  /// processes a slot beyond `limit_when`, and is skipped outright while
  /// `limit_when` lies below the floor.
  bool peek_due(Tick limit_when, std::uint64_t limit_id,
                const EventIdTable& ids) {
    if (limit_when < floor_) return false;
    return scan_due(limit_when, limit_id, ids);
  }

  /// (when, id) of the timer located by the last successful peek_due().
  Tick due_when() const { return due_when_; }
  std::uint64_t due_id() const { return due_id_; }

  /// Detaches and returns the callback of the timer located by peek_due().
  InlineCallback pop_due();

  /// Linked nodes, live + tombstoned — the wheel's contribution to the
  /// simulator's queue-depth telemetry (tombstones count until their
  /// deadline passes, matching the calendar queue's lazy pops).
  std::size_t stored() const { return stored_; }
  bool empty() const { return stored_ == 0; }

  // Structure telemetry for bench/qp_scaling and the unit tests.
  std::uint64_t armed_total() const { return armed_total_; }
  std::uint64_t fired_total() const { return fired_total_; }
  std::uint64_t reclaimed_total() const { return reclaimed_total_; }
  std::uint64_t cascades() const { return cascades_; }
  std::size_t max_stored() const { return max_stored_; }
  /// peek_due() calls that ran the occupancy scan (the rest stopped at the
  /// floor).
  std::uint64_t scans() const { return scans_; }
  std::size_t node_capacity() const { return nodes_.size(); }

 private:
  struct Node {
    Tick deadline = 0;
    std::uint64_t id = 0;
    InlineCallback cb;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  static int level_for(Tick delta);
  std::uint32_t slot_of(Tick deadline, int level) const {
    return static_cast<std::uint32_t>(
               static_cast<std::uint64_t>(deadline) >> (kLevelBits * level)) &
           (kSlots - 1);
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t n);
  void link(int level, std::uint32_t slot, std::uint32_t n);
  std::uint32_t unlink_head(int level, std::uint32_t slot);
  /// Files a node by its deadline relative to current_ and lowers the
  /// floor to the start of the slot window it lands in.
  void insert(std::uint32_t n);

  /// peek_due() past the floor check: the occupancy scan. Every false
  /// return sets the floor to that scan's minimum candidate.
  bool scan_due(Tick limit_when, std::uint64_t limit_id,
                const EventIdTable& ids);

  /// Re-files every node of the given slot one level down (pure
  /// relocation, tombstones included) after advancing current_ to
  /// `window_start`.
  void cascade_slot(int level, std::uint32_t slot, Tick window_start);

  /// Moves the level-0 slot due at `tick` into the staging vector, sorted
  /// by id; reclamation happens later, at the staged front.
  void stage_slot(std::uint32_t slot, Tick tick);

  /// Re-files overflow nodes that have come within the wheel horizon.
  void flush_overflow();

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t heads_[kLevels][kSlots];
  std::uint64_t occ_[kLevels];  // one bit per slot

  /// Deadlines past the wheel horizon (>= 64^kLevels ns out), re-filed as
  /// the cursor approaches. overflow_min_ is their minimum deadline.
  std::vector<std::uint32_t> overflow_;
  Tick overflow_min_ = std::numeric_limits<Tick>::max();

  /// Cursor: every linked node's deadline is >= current_. It advances as
  /// peek_due processes slots (possibly ahead of simulated time, through
  /// tombstoned ground) and rewinds when an arm lands below it.
  Tick current_ = 0;

  /// Lower bound on the minimum candidate of the next scan (see the file
  /// comment); max while the wheel is empty.
  Tick floor_ = std::numeric_limits<Tick>::max();

  /// Staged same-tick expiries: the whole level-0 slot due at staged_tick_
  /// detached and sorted by id; popped front-first across steps.
  std::vector<std::uint32_t> staged_;
  std::size_t staged_head_ = 0;
  Tick staged_tick_ = -1;

  Tick due_when_ = 0;
  std::uint64_t due_id_ = 0;
  std::uint32_t due_node_ = kNil;

  std::size_t stored_ = 0;
  std::size_t max_stored_ = 0;
  std::uint64_t armed_total_ = 0;
  std::uint64_t fired_total_ = 0;
  std::uint64_t reclaimed_total_ = 0;
  std::uint64_t cascades_ = 0;
  std::uint64_t scans_ = 0;
};

}  // namespace lumina
