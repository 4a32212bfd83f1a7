#include "sim/timing_wheel.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace lumina {
namespace {

constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

}  // namespace

TimingWheel::TimingWheel() {
  for (int l = 0; l < kLevels; ++l) {
    occ_[l] = 0;
    for (std::uint32_t s = 0; s < kSlots; ++s) heads_[l][s] = kNil;
  }
}

int TimingWheel::level_for(Tick delta) {
  if (delta <= 0) return 0;
  const int bits = std::bit_width(static_cast<std::uint64_t>(delta));
  return (bits - 1) / kLevelBits;  // level l covers delta in [64^l, 64^(l+1))
}

std::uint32_t TimingWheel::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t n = free_.back();
    free_.pop_back();
    return n;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void TimingWheel::free_node(std::uint32_t n) {
  nodes_[n].cb = InlineCallback{};
  nodes_[n].prev = kNil;
  nodes_[n].next = kNil;
  free_.push_back(n);
}

void TimingWheel::link(int level, std::uint32_t slot, std::uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNil;
  node.next = heads_[level][slot];
  if (node.next != kNil) nodes_[node.next].prev = n;
  heads_[level][slot] = n;
  occ_[level] |= 1ull << slot;
}

std::uint32_t TimingWheel::unlink_head(int level, std::uint32_t slot) {
  const std::uint32_t n = heads_[level][slot];
  if (n == kNil) return kNil;
  heads_[level][slot] = nodes_[n].next;
  if (nodes_[n].next != kNil) nodes_[nodes_[n].next].prev = kNil;
  if (heads_[level][slot] == kNil) occ_[level] &= ~(1ull << slot);
  nodes_[n].next = kNil;
  return n;
}

void TimingWheel::insert(std::uint32_t n) {
  const Tick deadline = nodes_[n].deadline;
  const Tick delta = deadline > current_ ? deadline - current_ : 0;
  const int level = level_for(delta);
  if (level >= kLevels) {
    // Beyond the wheel horizon (~2^48 ns): parked in the overflow list and
    // re-filed when the cursor gets within range. Never hit by RTO-scale
    // deadlines; kept for API completeness.
    overflow_.push_back(n);
    if (deadline < overflow_min_) overflow_min_ = deadline;
    floor_ = std::min(floor_, deadline);  // the scan sees overflow_min_
    return;
  }
  link(level, slot_of(deadline, level), n);
  // Not the deadline: a coarse slot's scan candidate is its window start,
  // and a floor above it would skip scans that cascade.
  const Tick window = Tick{1} << (kLevelBits * level);
  floor_ = std::min(floor_, deadline & ~(window - 1));
}

void TimingWheel::arm(Tick deadline, std::uint64_t id, InlineCallback cb) {
  const std::uint32_t n = alloc_node();
  nodes_[n].deadline = deadline;
  nodes_[n].id = id;
  nodes_[n].cb = std::move(cb);
  // The cursor may sit ahead of simulated time: peek_due reclaims
  // tombstones up to the caller's limit event, which can be far in the
  // future. An arm below the cursor (legal — the deadline is >= sim-now,
  // just behind reclaimed ground) rewinds it. Every candidate bound in
  // peek_due stays a valid lower bound under a rewound cursor because each
  // is the minimum deadline >= current_ with its slot's bit pattern.
  if (deadline < current_) current_ = deadline;
  insert(n);
  ++armed_total_;
  ++stored_;
  if (stored_ > max_stored_) max_stored_ = stored_;
}

void TimingWheel::cascade_slot(int level, std::uint32_t slot,
                               Tick window_start) {
  // Pure relocation: detach the whole list and re-file every node —
  // tombstoned ones included — one level down, where the remaining delta
  // fits a finer slot. Reclamation happens only at the staged front so a
  // cancelled timer occupies storage exactly as long as its calendar-queue
  // tombstone would have.
  if (window_start > current_) current_ = window_start;
  std::uint32_t n = unlink_head(level, slot);
  while (n != kNil) {
    ++cascades_;
    insert(n);
    n = unlink_head(level, slot);
  }
}

void TimingWheel::stage_slot(std::uint32_t slot, Tick tick) {
  // A cursor rewind (arm below current_) can make a new stage happen while
  // a previously staged tick still has unprocessed nodes; re-file them
  // instead of dropping them. Their deadline is strictly above the new
  // tick — the new stage was chosen as a smaller candidate.
  for (std::size_t i = staged_head_; i < staged_.size(); ++i) {
    insert(staged_[i]);
  }
  current_ = tick;
  staged_.clear();
  staged_head_ = 0;
  staged_tick_ = tick;
  for (std::uint32_t n = unlink_head(0, slot); n != kNil;
       n = unlink_head(0, slot)) {
    if (nodes_[n].deadline != tick) {
      insert(n);  // defensive: aliased straggler goes back to the wheel
      continue;
    }
    staged_.push_back(n);
  }
  // Same-tick expiries surface in id (arm) order — the (when, id) contract.
  std::sort(staged_.begin(), staged_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return nodes_[a].id < nodes_[b].id;
            });
}

void TimingWheel::flush_overflow() {
  std::vector<std::uint32_t> keep;
  Tick new_min = kMaxTick;
  for (const std::uint32_t n : overflow_) {
    if (level_for(nodes_[n].deadline - current_) < kLevels) {
      insert(n);
      continue;
    }
    keep.push_back(n);
    if (nodes_[n].deadline < new_min) new_min = nodes_[n].deadline;
  }
  overflow_.swap(keep);
  overflow_min_ = new_min;
}

bool TimingWheel::scan_due(Tick limit_when, std::uint64_t limit_id,
                           const EventIdTable& ids) {
  ++scans_;
  for (;;) {
    if (stored_ == 0) {
      floor_ = kMaxTick;
      return false;
    }

    // Minimum candidate across sources: for level 0 the exact tick of the
    // nearest occupied slot; for higher levels the start of the nearest
    // occupied window (a lower bound on its timers); for the staging
    // vector its tick. Ties process coarser levels first (cascades refine
    // before anything fires), then the staged slot (its ids predate any
    // same-tick re-arms still sitting in level 0).
    Tick best = kMaxTick;
    int best_rank = -1;  // 0 = level-0 slot, 1 = staged, l+1 = level l >= 1
    std::uint32_t best_slot = 0;
    if (staged_head_ < staged_.size()) {
      best = staged_tick_;
      best_rank = 1;
    }
    for (int l = 0; l < kLevels; ++l) {
      const std::uint64_t occ = occ_[l];
      if (occ == 0) continue;
      const int shift = kLevelBits * l;
      const auto pos =
          static_cast<std::uint32_t>(
              static_cast<std::uint64_t>(current_) >> shift) &
          (kSlots - 1);
      const Tick rot_span = Tick{1} << (shift + kLevelBits);
      const Tick rot_base = current_ & ~(rot_span - 1);
      // The level's candidate is the min over three sources:
      //  (a) the cursor's own slot, walked for its exact minimum — the one
      //      slot that can mix this window's nodes with nodes a full
      //      rotation out (same deadline bits), so neither its window
      //      start nor any single closed form is a faithful bound;
      //  (b) the nearest occupied slot ahead of the cursor, whose window
      //      start lower-bounds it (such slots hold a single rotation by
      //      construction: insert bounds delta to one rotation and the
      //      cursor has not yet passed them);
      //  (c) the nearest occupied slot behind the cursor, whose nodes are
      //      all exactly one rotation out.
      // (a) alone is not enough: when the cursor slot holds only
      // next-rotation nodes its minimum is huge, and slots ahead of it —
      // due a full rotation sooner — must still surface.
      Tick t = kMaxTick;
      std::uint32_t s = 0;
      if ((occ >> pos) & 1) {
        Tick m = kMaxTick;
        for (std::uint32_t n = heads_[l][pos]; n != kNil;
             n = nodes_[n].next) {
          m = std::min(m, nodes_[n].deadline);
        }
        t = m;
        s = pos;
      }
      const std::uint64_t ahead =
          pos + 1 < kSlots ? occ & (~std::uint64_t{0} << (pos + 1)) : 0;
      if (ahead != 0) {
        const auto s2 = static_cast<std::uint32_t>(std::countr_zero(ahead));
        const Tick t2 = rot_base + (Tick{s2} << shift);
        if (t2 < t) {
          t = t2;
          s = s2;
        }
      }
      const std::uint64_t behind = occ & ~(~std::uint64_t{0} << pos);
      if (behind != 0) {
        const auto s3 = static_cast<std::uint32_t>(std::countr_zero(behind));
        const Tick t3 = rot_base + rot_span + (Tick{s3} << shift);
        if (t3 < t) {
          t = t3;
          s = s3;
        }
      }
      const int rank = l == 0 ? 0 : l + 1;
      if (t < best || (t == best && rank > best_rank)) {
        best = t;
        best_rank = rank;
        best_slot = s;
      }
    }
    if (!overflow_.empty() && overflow_min_ < best) {
      if (overflow_min_ > limit_when) {
        floor_ = overflow_min_;
        return false;
      }
      if (overflow_min_ > current_) current_ = overflow_min_;
      flush_overflow();
      continue;
    }
    if (best_rank < 0 || best > limit_when) {
      floor_ = best;
      return false;
    }

    if (best_rank == 1) {
      // Staged front: the wheel's (when, id) minimum. Due/reclaim only
      // while it precedes the caller's limit event.
      const std::uint32_t n = staged_[staged_head_];
      if (staged_tick_ == limit_when && nodes_[n].id >= limit_id) {
        floor_ = best;
        return false;
      }
      if (ids.dead(nodes_[n].id)) {
        --stored_;
        ++reclaimed_total_;
        free_node(n);
        ++staged_head_;
        if (staged_head_ == staged_.size()) {
          staged_.clear();
          staged_head_ = 0;
        }
        continue;
      }
      due_when_ = staged_tick_;
      due_id_ = nodes_[n].id;
      due_node_ = n;
      return true;
    }
    if (best_rank == 0) {
      stage_slot(best_slot, best);
      continue;
    }
    // `best` may be an exact deadline (cursor-slot candidate); cascade
    // from the start of the level window containing it.
    const int level = best_rank - 1;
    const Tick window = Tick{1} << (kLevelBits * level);
    cascade_slot(level, best_slot, best & ~(window - 1));
  }
}

InlineCallback TimingWheel::pop_due() {
  const std::uint32_t n = due_node_;
  ++staged_head_;
  if (staged_head_ == staged_.size()) {
    staged_.clear();
    staged_head_ = 0;
  }
  --stored_;
  ++fired_total_;
  InlineCallback cb = std::move(nodes_[n].cb);
  free_node(n);
  due_node_ = kNil;
  return cb;
}

}  // namespace lumina
