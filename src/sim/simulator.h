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
//     hierarchical timing wheel (sim/timing_wheel.h) via
//     schedule_timer_at/after; the run loop merges the wheel's due stream
//     with the calendar queue in strict (when, id) order, so the two
//     stores are observationally one queue.
// The retired binary-heap implementation survives as ReferenceScheduler
// (sim/reference_scheduler.h); the differential test drives both through
// randomized workloads asserting identical observable behavior.
//
// One Simulator serves one run on one thread. Instances share no mutable
// state, so a campaign (campaign/parallel.h) may run many of them on
// concurrent worker threads; the log clock each registers is thread-local.
#pragma once

#include <cstdint>

#include "sim/calendar_queue.h"
#include "sim/event_id_table.h"
#include "sim/inline_callback.h"
#include "sim/timing_wheel.h"
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
  /// order, same cancel()), but the event is stored in the hierarchical
  /// timing wheel — O(1) arm/cancel regardless of how many timers are
  /// armed. Meant for high-churn deadlines that are usually cancelled
  /// before they fire (retransmission timeouts). With the kCalendar
  /// backend selected these forward to schedule_at (the differential
  /// test's reference path).
  std::uint64_t schedule_timer_at(Tick when, Callback cb);
  std::uint64_t schedule_timer_after(Tick delay, Callback cb);

  /// Which store backs schedule_timer_*. Switch only while no timers are
  /// pending (typically right after construction).
  enum class TimerBackend { kWheel, kCalendar };
  void set_timer_backend(TimerBackend backend) { timer_backend_ = backend; }
  TimerBackend timer_backend() const { return timer_backend_; }

  /// Structure telemetry for the wheel store (bench/qp_scaling).
  const TimingWheel& timer_wheel() const { return wheel_; }

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

  /// Pops tombstoned calendar heads, then reports the next event to fire:
  /// the wheel's due timer when it precedes the live calendar head in
  /// (when, id) order, else the head. Returns false when drained.
  bool locate_next(bool& timer_first, Tick& next_when);

  void fire_due_timer();
  void fire_calendar_head();

  Tick now_ = 0;
  bool stopped_ = false;
  const std::int64_t* prev_log_clock_ = nullptr;
  std::uint64_t next_id_ = 1;
  std::uint64_t processed_ = 0;
  std::uint64_t cancel_requests_ = 0;
  std::size_t alive_ = 0;
  std::size_t max_queue_depth_ = 0;
  TimerBackend timer_backend_ = TimerBackend::kWheel;
  CalendarQueue queue_;
  TimingWheel wheel_;
  EventIdTable ids_;
};

}  // namespace lumina
