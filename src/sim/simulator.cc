#include "sim/simulator.h"

#include <limits>
#include <utility>

#include "util/logging.h"

namespace lumina {
namespace {

constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();
constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();

}  // namespace

Simulator::Simulator() { prev_log_clock_ = set_log_clock(&now_); }

Simulator::~Simulator() { set_log_clock(prev_log_clock_); }

void Simulator::file(Tick when, std::uint64_t id, Callback cb) {
  SimEvent ev;
  ev.when = when;
  ev.id = id;
  ev.cb = std::move(cb);
  queue_.push(std::move(ev));
  ++alive_;
  const std::size_t depth = queue_.size() + timers_.stored();
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
}

std::uint64_t Simulator::schedule_at(Tick when, Callback cb) {
  const std::uint64_t id = reserve_id();
  file(when < now_ ? now_ : when, id, std::move(cb));
  return id;
}

std::uint64_t Simulator::schedule_after(Tick delay, Callback cb) {
  return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
}

std::uint64_t Simulator::schedule_timer_at(Tick when, Callback cb) {
  const std::uint64_t id = reserve_id();
  timers_.arm(when < now_ ? now_ : when, id, std::move(cb));
  ++alive_;
  const std::size_t depth = queue_.size() + timers_.stored();
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
  return id;
}

std::uint64_t Simulator::schedule_timer_after(Tick delay, Callback cb) {
  return schedule_timer_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
}

void Simulator::cancel(std::uint64_t event_id) {
  if (event_id == 0) return;
  ++cancel_requests_;
  // Never-issued ids cannot be cancelled; already-dead ids (fired or
  // previously cancelled) are the documented no-op.
  if (event_id < next_id_ && ids_.kill(event_id)) {
    --alive_;
  }
}

bool Simulator::locate_next(bool& timer_first, Tick& next_when) {
  for (;;) {
    const SimEvent* head = queue_.peek_min();
    // Consult the timers before popping a tombstoned head: a dead calendar
    // event is dropped only once it is the global (calendar ∪ timers)
    // minimum, exactly when a single queue would lazily pop it — otherwise
    // it stays resident through earlier timer callbacks and the queue-depth
    // telemetry diverges from ReferenceScheduler's.
    timer_first =
        timers_.peek_due(head != nullptr ? head->when : kMaxTick,
                         head != nullptr ? head->id : kMaxId, ids_);
    if (timer_first) {
      next_when = timers_.due_when();
      return true;
    }
    if (head == nullptr) return false;
    if (ids_.dead(head->id)) {
      queue_.pop_min();  // tombstoned by cancel(); drop without firing
      continue;
    }
    next_when = head->when;
    return true;
  }
}

void Simulator::fire_due_timer() {
  fired_id_ = timers_.due_id();
  ids_.kill(fired_id_);  // fired: cancel() becomes the no-op
  --alive_;
  now_ = fired_when_ = timers_.due_when();
  ++processed_;
  InlineCallback cb = timers_.pop_due();
  cb();
}

void Simulator::fire_calendar_head() {
  SimEvent ev = queue_.pop_min();
  ids_.kill(ev.id);  // locate_next guaranteed the head is live
  --alive_;
  now_ = fired_when_ = ev.when;
  fired_id_ = ev.id;
  ++processed_;
  ev.cb();
}

bool Simulator::step() {
  bool timer_first = false;
  Tick next_when = 0;
  if (!locate_next(timer_first, next_when)) return false;
  if (timer_first) {
    fire_due_timer();
  } else {
    fire_calendar_head();
  }
  return true;
}

void Simulator::mark_fired_through(Tick when) {
  if (when < fired_when_) return;
  fired_when_ = when;
  fired_id_ = kMaxId;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
  if (!stopped_) mark_fired_through(now_);
}

void Simulator::run_until(Tick deadline) {
  stopped_ = false;
  while (!stopped_) {
    bool timer_first = false;
    Tick next_when = 0;
    if (!locate_next(timer_first, next_when)) break;
    if (next_when > deadline) break;
    if (timer_first) {
      fire_due_timer();
    } else {
      fire_calendar_head();
    }
  }
  if (now_ < deadline) now_ = deadline;
  if (!stopped_) mark_fired_through(deadline);
}

}  // namespace lumina
