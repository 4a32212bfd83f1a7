// Discrete-event simulation kernel.
//
// The entire testbed (hosts, switch, dumpers, links) runs on one Simulator.
// Events are (time, sequence) ordered: two events scheduled for the same
// tick fire in scheduling order, which keeps runs bit-for-bit reproducible.
//
// Hot-path internals (docs/simulator.md):
//   - pending events live in a calendar queue tuned to the clustered
//     timestamps links and timers produce (sim/calendar_queue.h);
//   - callbacks are small-buffer-optimized (sim/inline_callback.h) —
//     captures of a few pointers and scalars, or of a moved-in Packet,
//     fire without a heap allocation;
//   - cancel() flips a liveness bit in a chunked id table
//     (sim/event_id_table.h) — O(1), no hash set;
//   - high-churn timers (RNIC retransmission timeouts) live in a
//     (when, id) min-heap (sim/timer_heap.h) via schedule_timer_at/after;
//     the run loop merges the heap's due stream with the calendar queue in
//     strict (when, id) order, so the two stores are observationally one
//     queue;
//   - an event that may turn out to have nothing to do can hold its slot
//     without being queued: reserve_id() takes the id it would get,
//     schedule_reserved() files it later under that id, and passed()
//     says whether the slot has already gone by (docs/simulator.md,
//     "Deferred completions"). A Port files its serialization-complete
//     event this way only once a frame waits behind it.
// The retired binary-heap implementation survives as ReferenceScheduler
// (sim/reference_scheduler.h), which files timers as plain events; the
// differential test drives both through randomized workloads asserting
// identical observable behavior.
//
// One Simulator serves one run on one thread. Instances share no mutable
// state, so a campaign (campaign/parallel.h) may run many of them on
// concurrent worker threads; the log clock each registers is thread-local.
#pragma once

#include <cstdint>

#include "sim/calendar_queue.h"
#include "sim/event_id_table.h"
#include "sim/inline_callback.h"
#include "sim/timer_heap.h"
#include "util/time.h"

namespace lumina {

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Schedules `cb` to run at absolute time `when` (clamped to `now()`).
  /// Returns an event id usable with `cancel()`.
  std::uint64_t schedule_at(Tick when, Callback cb);

  /// Schedules `cb` to run `delay` ns from now (negative delays clamp to 0).
  std::uint64_t schedule_after(Tick delay, Callback cb);

  /// Timer-flavored scheduling: identical observable semantics to
  /// schedule_at/schedule_after (same id space, same (when, id) firing
  /// order, same cancel()), but the event is stored in the timer heap, so
  /// its tombstone never sits in a calendar bucket. Meant for high-churn
  /// deadlines that are usually cancelled before they fire (retransmission
  /// timeouts).
  std::uint64_t schedule_timer_at(Tick when, Callback cb);
  std::uint64_t schedule_timer_after(Tick delay, Callback cb);

  /// Telemetry of the timer store (bench/qp_scaling).
  const TimerHeap& timers() const { return timers_; }

  /// Takes the id the next schedule call would take and registers it, so
  /// later schedule calls get later ids. Nothing is queued: the id counts
  /// in neither pending_events() nor max_queue_depth() until it is filed.
  /// The id must end in exactly one schedule_reserved() or release_id();
  /// cancel() is for filed events only.
  std::uint64_t reserve_id() {
    const std::uint64_t id = next_id_++;
    ids_.on_allocated(id);
    return id;
  }

  /// Files `cb` under a reserved id at exactly `when` (no clamp), so it
  /// fires in the (when, id) slot it would have held had it been
  /// scheduled when the id was reserved. Pre: !passed(when, id).
  void schedule_reserved(Tick when, std::uint64_t id, Callback cb) {
    file(when, id, std::move(cb));
  }

  /// Retires a reserved id that will never be filed, so its chunk of the
  /// id table can be released.
  void release_id(std::uint64_t id) { ids_.kill(id); }

  /// True when an event at (when, id) would already have fired: it sorts
  /// at or before the last event fired, or at or before the point an
  /// unstopped run() or run_until() reached. Not now() alone: a stop()
  /// inside run_until() leaves the clock at the deadline with earlier
  /// events still pending.
  bool passed(Tick when, std::uint64_t id) const {
    return when < fired_when_ || (when == fired_when_ && id <= fired_id_);
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id is
  /// a no-op. O(1): the event's liveness bit flips and the slot is skipped
  /// at pop time.
  void cancel(std::uint64_t event_id);

  /// Runs until the event queue drains or `stop()` is called.
  void run();

  /// Runs until simulated time would exceed `deadline`. Events at exactly
  /// `deadline` still fire.
  void run_until(Tick deadline);

  /// Stops the run loop after the current callback returns.
  void stop() { stopped_ = true; }

  std::uint64_t events_processed() const { return processed_; }

  /// Events scheduled but neither fired nor cancelled. Exact: cancelling an
  /// already-fired id does not distort the count.
  std::size_t pending_events() const { return alive_; }

  // Telemetry taps (scraped into the run's metrics registry): high-water
  // mark of the event queue and the number of cancel() requests issued.
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  std::uint64_t cancel_requests() const { return cancel_requests_; }

 private:
  bool step();  // fires one event; returns false when both stores are empty

  /// Queues `cb` at (when, id) in the calendar and updates the counters.
  void file(Tick when, std::uint64_t id, Callback cb);

  /// Every event at or before `when` has fired (an unstopped run loop
  /// returned having reached it).
  void mark_fired_through(Tick when);

  /// Pops tombstoned calendar heads, then reports the next event to fire:
  /// the heap's due timer when it precedes the live calendar head in
  /// (when, id) order, else the head. Returns false when drained.
  bool locate_next(bool& timer_first, Tick& next_when);

  void fire_due_timer();
  void fire_calendar_head();

  Tick now_ = 0;
  // The (when, id) cursor behind passed(): the last event fired, or the
  // point an unstopped run loop reached. Ids start at 1, so (0, 0)
  // precedes every event.
  Tick fired_when_ = 0;
  std::uint64_t fired_id_ = 0;
  bool stopped_ = false;
  const std::int64_t* prev_log_clock_ = nullptr;
  std::uint64_t next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t cancel_requests_ = 0;
  std::size_t alive_ = 0;
  std::size_t max_queue_depth_ = 0;
  CalendarQueue queue_;
  TimerHeap timers_;
  EventIdTable ids_;
};

}  // namespace lumina
