// Differential test: the calendar-queue Simulator against the retired
// binary-heap scheduler (sim/reference_scheduler.h).
//
// The hot-path overhaul (docs/simulator.md) must be observationally
// invisible: identical (time, seq) firing order, identical returned event
// ids, identical clock progression and counters. This harness generates
// seeded-random scheduling workloads — schedule_at / schedule_after /
// cancel (including cancel-of-fired, cancel-of-unknown, double-cancel),
// same-tick ties, negative delays, nested scheduling from inside callbacks,
// stop(), run_until() — as pure data scripts, executes each script against
// both implementations, and asserts the observable behavior is identical.
//
// The TimerDifferential scripts add schedule_timer_at/after and the RTO
// cancel-and-re-arm idiom. The Simulator files those in its timer heap;
// ReferenceScheduler has no timer store and files them as plain events,
// so equal counters, max_queue_depth included, show that a cancelled
// timer stays stored exactly as long as its calendar tombstone would.
//
// Scripts are data (not closures) precisely so the same workload can drive
// two different scheduler types through the same template executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/reference_scheduler.h"
#include "sim/simulator.h"

namespace lumina {
namespace {

// ---------------------------------------------------------------------------
// Workload script model
// ---------------------------------------------------------------------------

enum class OpKind {
  kScheduleAt,     // schedule slot `slot` at absolute time `tick`
  kScheduleAfter,  // schedule slot `slot` at now + `tick` (may be negative)
  kTimerAt,        // timer for slot `slot` at absolute time `tick`
  kTimerAfter,     // timer for slot `slot` at now + `tick`
  kRearm,          // cancel slot `target` (if any), then kTimerAfter
  kCancelSlot,     // cancel the id recorded for slot `target` (0 if unset)
  kCancelRaw,      // cancel a raw id never returned by schedule_*
  kStop,           // stop() — callback-only
  kRun,            // run() — top-level only
  kRunUntil,       // run_until(tick) — top-level only
};

struct Op {
  OpKind kind;
  Tick tick = 0;
  int slot = -1;    // slot defined by a schedule op
  int target = -1;  // slot referenced by kCancelSlot and kRearm
};

/// One workload: a top-level op sequence plus, per slot, the op sequence its
/// callback executes when (if) it fires. Slot k is scheduled by exactly one
/// schedule op somewhere in the script.
struct Script {
  std::vector<Op> top;
  std::vector<std::vector<Op>> body;  // indexed by slot
};

class ScriptGen {
 public:
  /// With `timers`, generate() also arms timers and re-arms them.
  explicit ScriptGen(std::uint64_t seed, bool timers = false)
      : rng_(seed), timers_(timers) {}

  Script generate() {
    Script s;
    const int top_ops = 8 + static_cast<int>(rng_() % 48);
    for (int i = 0; i < top_ops; ++i) {
      s.top.push_back(top_op(s));
    }
    // Always drain at the end so every surviving event fires and the final
    // counters cover the whole script.
    s.top.push_back({OpKind::kRun});
    return s;
  }

  /// The retransmission-timer shape: a few QPs each keep an RTO armed
  /// while a chain of plain events tens of ns apart carries "ACK"s that
  /// cancel and re-arm them, so nearly every step consults the timer store
  /// with a limit below every armed deadline. Occasional long gaps in the
  /// chain let timers fire (and retry), and run_until deadlines inside
  /// those gaps let the store reclaim tombstones ahead of the clock before
  /// the re-arms that follow.
  Script generate_rto_churn() {
    Script s;
    const int qps = 2 + static_cast<int>(rng_() % 10);
    std::vector<int> latest(static_cast<std::size_t>(qps), -1);
    const auto new_slot = [&s] {
      s.body.emplace_back();
      return static_cast<int>(s.body.size() - 1);
    };
    // An RTO (re-)arm for `qp`; when it fires it may retry once.
    const auto rto_op = [&](int qp, OpKind kind) {
      Op op{kind, rto_delay(), new_slot(),
            latest[static_cast<std::size_t>(qp)]};
      latest[static_cast<std::size_t>(qp)] = op.slot;
      if (rng_() % 2 == 0) {
        const Op retry{OpKind::kTimerAfter, rto_delay(), new_slot()};
        s.body[static_cast<std::size_t>(op.slot)].push_back(retry);
      }
      return op;
    };
    for (int qp = 0; qp < qps; ++qp) {
      s.top.push_back(rto_op(qp, OpKind::kTimerAfter));
    }
    Tick end = 0;
    int prev = -1;
    const int ticks = 64 + static_cast<int>(rng_() % 256);
    for (int i = 0; i < ticks; ++i) {
      const Tick gap = rng_() % 16 == 0
                           ? static_cast<Tick>(20'000 + rng_() % 300'000)
                           : static_cast<Tick>(20 + rng_() % 60);
      end += gap;
      const Op tick{OpKind::kScheduleAfter, gap, new_slot()};
      if (prev < 0) {
        s.top.push_back(tick);
      } else {
        s.body[static_cast<std::size_t>(prev)].push_back(tick);
      }
      if (rng_() % 4 == 0) {
        const int qp = static_cast<int>(rng_() % static_cast<unsigned>(qps));
        const Op ack = rto_op(qp, OpKind::kRearm);
        s.body[static_cast<std::size_t>(tick.slot)].push_back(ack);
      }
      prev = tick.slot;
    }
    std::vector<Tick> cuts(rng_() % 5);
    for (Tick& cut : cuts) cut = static_cast<Tick>(rng_() % (end + 1));
    std::sort(cuts.begin(), cuts.end());
    for (const Tick cut : cuts) {
      s.top.push_back({OpKind::kRunUntil, cut});
      const int qp = static_cast<int>(rng_() % static_cast<unsigned>(qps));
      s.top.push_back(rto_op(qp, OpKind::kRearm));
    }
    s.top.push_back({OpKind::kRun});
    return s;
  }

 private:
  Op top_op(Script& s) {
    switch (rng_() % (timers_ ? 12 : 10)) {
      case 0:
        return {OpKind::kRunUntil, random_time()};
      case 1:
        return cancel_op();
      case 2:
        return {OpKind::kRun};
      default:
        return schedule_op(s, /*depth=*/0);
    }
  }

  /// Allocates a slot and generates its callback body (depth-limited so
  /// nested schedules terminate).
  Op schedule_op(Script& s, int depth) {
    const int slot = static_cast<int>(s.body.size());
    s.body.emplace_back();
    if (depth < 3) {
      const int body_ops = static_cast<int>(rng_() % 4);
      for (int i = 0; i < body_ops; ++i) {
        // Materialize the op BEFORE indexing s.body: a nested schedule_op
        // grows s.body and would invalidate a held reference.
        Op op;
        switch (rng_() % 8) {
          case 0:
            op = cancel_op();
            break;
          case 1:
            if (depth >= 1) {  // stop() only from nested callbacks: rarer
              op = Op{OpKind::kStop};
              break;
            }
            [[fallthrough]];
          default:
            op = schedule_op(s, depth + 1);
        }
        s.body[static_cast<std::size_t>(slot)].push_back(op);
      }
    }
    Op op = timers_ ? timer_or_event_op() : event_op();
    op.slot = slot;
    slots_seen_.push_back(slot);
    return op;
  }

  Op event_op() {
    Op op;
    if (rng_() % 2 == 0) {
      op.kind = OpKind::kScheduleAt;
      op.tick = random_time();
    } else {
      op.kind = OpKind::kScheduleAfter;
      // Mostly small forward delays (clustered timestamps — the calendar
      // queue's design load), sometimes zero or negative.
      const auto r = rng_() % 16;
      op.tick = r == 0 ? -static_cast<Tick>(rng_() % 100)
                       : static_cast<Tick>(rng_() % 5000);
    }
    return op;
  }

  Op timer_or_event_op() {
    Op op;
    switch (rng_() % 6) {
      case 0:
        op.kind = OpKind::kScheduleAt;
        op.tick = random_time();
        break;
      case 1:
        op.kind = OpKind::kScheduleAfter;
        op.tick = static_cast<Tick>(rng_() % 5000);
        break;
      case 2:
        op.kind = OpKind::kTimerAt;
        op.tick = random_time();
        break;
      case 3:
        // The RTO idiom: disarm whatever a previous slot armed, arm anew.
        op.kind = OpKind::kRearm;
        op.tick = rto_delay();
        if (!slots_seen_.empty()) {
          op.target = slots_seen_[rng_() % slots_seen_.size()];
        }
        break;
      default:
        op.kind = OpKind::kTimerAfter;
        op.tick = rto_delay();
        break;
    }
    return op;
  }

  Op cancel_op() {
    if (slots_seen_.empty() || rng_() % 8 == 0) {
      // Raw ids the schedulers never handed out — far future and 0-adjacent.
      return {OpKind::kCancelRaw, 0, -1, -1};
    }
    Op op{OpKind::kCancelSlot};
    op.target = slots_seen_[rng_() % slots_seen_.size()];
    return op;
  }

  Tick random_time() {
    switch (rng_() % 4) {
      case 0:  // tie bait: tiny range, collides constantly
        return static_cast<Tick>(rng_() % 8);
      case 1:  // sparse far future
        return static_cast<Tick>(rng_() % 3'000'000);
      default:  // clustered near-term
        return static_cast<Tick>(rng_() % 4096);
    }
  }

  Tick rto_delay() {
    switch (rng_() % 8) {
      case 0:  // same-tick ties
        return static_cast<Tick>(rng_() % 4);
      case 1:  // a few ns around 64, 4096 or 262144
        return (Tick{1} << (6 * (1 + static_cast<int>(rng_() % 3)))) -
               2 + static_cast<Tick>(rng_() % 4);
      case 2:  // up to 40 ms out
        return static_cast<Tick>(rng_() % 40'000'000);
      default:  // realistic RTO range: tens to hundreds of microseconds
        return static_cast<Tick>(20'000 + rng_() % 500'000);
    }
  }

  std::mt19937_64 rng_;
  bool timers_;
  std::vector<int> slots_seen_;
};

// ---------------------------------------------------------------------------
// Script executor (works for both scheduler types)
// ---------------------------------------------------------------------------

/// Arms a timer: in the Simulator's timer heap, or as a plain event on
/// ReferenceScheduler, which has no timer store.
template <typename Scheduler, typename F>
std::uint64_t arm_timer_at(Scheduler& sched, Tick when, F cb) {
  if constexpr (std::is_same_v<Scheduler, Simulator>) {
    return sched.schedule_timer_at(when, std::move(cb));
  } else {
    return sched.schedule_at(when, std::move(cb));
  }
}

template <typename Scheduler, typename F>
std::uint64_t arm_timer_after(Scheduler& sched, Tick delay, F cb) {
  if constexpr (std::is_same_v<Scheduler, Simulator>) {
    return sched.schedule_timer_after(delay, std::move(cb));
  } else {
    return sched.schedule_after(delay, std::move(cb));
  }
}

struct Observation {
  std::vector<std::pair<int, Tick>> firings;  // (slot, fire time) in order
  std::vector<std::uint64_t> ids;             // per slot; 0 = never scheduled
  Tick final_now = 0;
  std::uint64_t events_processed = 0;
  std::size_t pending_events = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t cancel_requests = 0;
};

template <typename Scheduler>
Observation execute(const Script& script) {
  Scheduler sched;
  Observation obs;
  obs.ids.assign(script.body.size(), 0);

  struct Ctx {
    Scheduler& sched;
    const Script& script;
    Observation& obs;

    void apply(const Op& op) {
      switch (op.kind) {
        case OpKind::kScheduleAt:
          obs.ids[static_cast<std::size_t>(op.slot)] =
              sched.schedule_at(op.tick, callback(op.slot));
          break;
        case OpKind::kScheduleAfter:
          obs.ids[static_cast<std::size_t>(op.slot)] =
              sched.schedule_after(op.tick, callback(op.slot));
          break;
        case OpKind::kTimerAt:
          obs.ids[static_cast<std::size_t>(op.slot)] =
              arm_timer_at(sched, op.tick, callback(op.slot));
          break;
        case OpKind::kRearm:
          if (op.target >= 0) {
            sched.cancel(obs.ids[static_cast<std::size_t>(op.target)]);
          }
          [[fallthrough]];
        case OpKind::kTimerAfter:
          obs.ids[static_cast<std::size_t>(op.slot)] =
              arm_timer_after(sched, op.tick, callback(op.slot));
          break;
        case OpKind::kCancelSlot:
          sched.cancel(obs.ids[static_cast<std::size_t>(op.target)]);
          break;
        case OpKind::kCancelRaw:
          sched.cancel(0x7fff'ffff'ffffULL);
          sched.cancel(0);
          break;
        case OpKind::kStop:
          sched.stop();
          break;
        case OpKind::kRun:
          sched.run();
          break;
        case OpKind::kRunUntil:
          sched.run_until(op.tick);
          break;
      }
    }

    auto callback(int slot) {
      return [this, slot] {
        obs.firings.emplace_back(slot, sched.now());
        for (const Op& op : script.body[static_cast<std::size_t>(slot)]) {
          apply(op);
        }
      };
    }
  };
  Ctx ctx{sched, script, obs};

  for (const Op& op : script.top) {
    ctx.apply(op);
  }

  obs.final_now = sched.now();
  obs.events_processed = sched.events_processed();
  obs.pending_events = sched.pending_events();
  obs.max_queue_depth = sched.max_queue_depth();
  obs.cancel_requests = sched.cancel_requests();
  return obs;
}

// ---------------------------------------------------------------------------
// The differential check
// ---------------------------------------------------------------------------

constexpr int kWorkloads = 1200;

TEST(SimDifferential, CalendarQueueMatchesReferenceHeap) {
  int total_firings = 0;
  int total_cancels = 0;
  for (int seed = 1; seed <= kWorkloads; ++seed) {
    ScriptGen gen(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL);
    const Script script = gen.generate();

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);

    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed) << "seed " << seed;
    ASSERT_EQ(got.pending_events, want.pending_events) << "seed " << seed;
    ASSERT_EQ(got.max_queue_depth, want.max_queue_depth) << "seed " << seed;
    ASSERT_EQ(got.cancel_requests, want.cancel_requests) << "seed " << seed;

    total_firings += static_cast<int>(want.firings.size());
    total_cancels += static_cast<int>(want.cancel_requests);
  }
  // Guard against the generator degenerating into trivial scripts.
  EXPECT_GT(total_firings, 10 * kWorkloads);
  EXPECT_GT(total_cancels, kWorkloads);
}

// Deep same-tick pileups exercise the tie-break (when, seq) path harder
// than the uniform generator does.
TEST(SimDifferential, MassiveSameTickTies) {
  for (int seed = 1; seed <= 50; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    Script script;
    for (int i = 0; i < 400; ++i) {
      Op op{rng() % 2 == 0 ? OpKind::kScheduleAt : OpKind::kScheduleAfter,
            static_cast<Tick>(rng() % 3), static_cast<int>(script.body.size())};
      script.body.emplace_back();
      script.top.push_back(op);
      if (rng() % 4 == 0) {
        Op cancel{OpKind::kCancelSlot};
        cancel.target = static_cast<int>(rng() % script.body.size());
        script.top.push_back(cancel);
      }
    }
    script.top.push_back({OpKind::kRun});

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);
    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed) << "seed " << seed;
    ASSERT_EQ(got.max_queue_depth, want.max_queue_depth) << "seed " << seed;
  }
}

// Wide time spans force calendar resizes and the sparse direct-search
// fallback; the heap is insensitive to either, making it a good oracle.
TEST(SimDifferential, SparseWideSpanWorkloads) {
  for (int seed = 1; seed <= 50; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919);
    Script script;
    for (int i = 0; i < 200; ++i) {
      Op op{OpKind::kScheduleAt,
            static_cast<Tick>(rng() % 1'000'000'000'000LL),
            static_cast<int>(script.body.size())};
      script.body.emplace_back();
      script.top.push_back(op);
    }
    script.top.push_back({OpKind::kRun});

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);
    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Timers: the Simulator's timer heap against per-event timers
// ---------------------------------------------------------------------------

TEST(TimerDifferential, WheelMatchesPerEventTimers) {
  int total_firings = 0;
  int total_cancels = 0;
  for (int seed = 1; seed <= kWorkloads; ++seed) {
    ScriptGen gen(static_cast<std::uint64_t>(seed) * 0xbf58476d1ce4e5b9ULL,
                  /*timers=*/true);
    const Script script = gen.generate();

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);

    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed) << "seed " << seed;
    ASSERT_EQ(got.pending_events, want.pending_events) << "seed " << seed;
    ASSERT_EQ(got.max_queue_depth, want.max_queue_depth) << "seed " << seed;
    ASSERT_EQ(got.cancel_requests, want.cancel_requests) << "seed " << seed;

    total_firings += static_cast<int>(want.firings.size());
    total_cancels += static_cast<int>(want.cancel_requests);
  }
  // Guard against the generator degenerating into trivial scripts.
  EXPECT_GT(total_firings, 10'000);
  EXPECT_GT(total_cancels, 2'000);
}

TEST(TimerDifferential, RtoChurnMatchesPerEventTimers) {
  int total_firings = 0;
  int total_cancels = 0;
  for (int seed = 1; seed <= 400; ++seed) {
    ScriptGen gen(static_cast<std::uint64_t>(seed) * 0x94d049bb133111ebULL);
    const Script script = gen.generate_rto_churn();

    const Observation got = execute<Simulator>(script);
    const Observation want = execute<ReferenceScheduler>(script);

    ASSERT_EQ(got.firings, want.firings) << "seed " << seed;
    ASSERT_EQ(got.ids, want.ids) << "seed " << seed;
    ASSERT_EQ(got.final_now, want.final_now) << "seed " << seed;
    ASSERT_EQ(got.events_processed, want.events_processed) << "seed " << seed;
    ASSERT_EQ(got.pending_events, want.pending_events) << "seed " << seed;
    ASSERT_EQ(got.max_queue_depth, want.max_queue_depth) << "seed " << seed;
    ASSERT_EQ(got.cancel_requests, want.cancel_requests) << "seed " << seed;

    total_firings += static_cast<int>(want.firings.size());
    total_cancels += static_cast<int>(want.cancel_requests);
  }
  EXPECT_GT(total_firings, 40'000);
  EXPECT_GT(total_cancels, 10'000);
}

// A long-lived churn soak on one scheduler instance: a fixed population of
// "QPs" each keeps exactly one timer armed, re-arming with fresh deadlines
// from its callback and getting disarmed/re-armed by a periodic "ACK"
// event — the steady state of RTOs on a healthy fabric.
constexpr int kSoakQps = 257;
constexpr Tick kSoakHorizon = 40'000'000;

template <typename Scheduler>
auto steady_state_churn() {
  Scheduler sim;
  std::vector<std::uint64_t> timer_ids(kSoakQps, 0);
  std::vector<std::pair<int, Tick>> fires;
  std::mt19937_64 rng(0x5eed);

  struct Driver {
    Scheduler& sim;
    std::vector<std::uint64_t>& timer_ids;
    std::vector<std::pair<int, Tick>>& fires;
    std::mt19937_64& rng;

    void arm(int qp) {
      const Tick rto = 20'000 + static_cast<Tick>(rng() % 300'000);
      timer_ids[static_cast<std::size_t>(qp)] =
          arm_timer_after(sim, rto, [this, qp] {
            fires.emplace_back(qp, sim.now());
            arm(qp);  // back-to-back re-arm, like an RTO retry
          });
    }

    void ack_tick(Tick period) {
      sim.schedule_after(period, [this, period] {
        // "ACK": disarm + re-arm a pseudo-random third of the QPs.
        for (int qp = 0; qp < kSoakQps; ++qp) {
          if (rng() % 3 != 0) continue;
          sim.cancel(timer_ids[static_cast<std::size_t>(qp)]);
          arm(qp);
        }
        ack_tick(period);
      });
    }
  };
  Driver driver{sim, timer_ids, fires, rng};
  for (int qp = 0; qp < kSoakQps; ++qp) driver.arm(qp);
  driver.ack_tick(/*period=*/70'001);
  sim.run_until(kSoakHorizon);

  return std::tuple(fires, sim.events_processed(), sim.pending_events(),
                    sim.max_queue_depth(), sim.now());
}

TEST(TimerDifferential, SteadyStateChurnMatches) {
  const auto got = steady_state_churn<Simulator>();
  const auto want = steady_state_churn<ReferenceScheduler>();
  EXPECT_EQ(std::get<0>(got), std::get<0>(want));
  EXPECT_EQ(std::get<1>(got), std::get<1>(want));
  EXPECT_EQ(std::get<2>(got), std::get<2>(want));
  EXPECT_EQ(std::get<3>(got), std::get<3>(want));
  EXPECT_EQ(std::get<4>(got), std::get<4>(want));
}

}  // namespace
}  // namespace lumina
