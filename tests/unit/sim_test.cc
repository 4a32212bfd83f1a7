// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace lumina {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTickEventsFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  Tick inner_fire_time = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { inner_fire_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fire_time, 150);
}

TEST(Simulator, PastDeadlinesClampToNow) {
  Simulator sim;
  Tick fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator sim;
  Tick fired_at = -1;
  sim.schedule_after(-5, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, CancelUnknownIdIsNoOp) {
  Simulator sim;
  sim.cancel(12345);
  bool fired = false;
  sim.schedule_at(1, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelledEventDoesNotBlockOthersAtSameTick) {
  Simulator sim;
  std::vector<int> order;
  const auto id = sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<Tick> fired;
  for (Tick t = 10; t <= 100; t += 10) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(50);
  EXPECT_EQ(fired.size(), 5u);  // 10..50 inclusive
  EXPECT_EQ(sim.now(), 50);
  sim.run();  // the rest still fire afterwards
  EXPECT_EQ(fired.size(), 10u);
}

TEST(Simulator, RunUntilAdvancesClockToDeadlineEvenWhenIdle) {
  Simulator sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] { ++fired; });
  sim.schedule_at(2, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(3, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  sim.run();  // resumable
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, SelfReschedulingChainTerminates) {
  Simulator sim;
  int remaining = 1000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) sim.schedule_after(7, tick);
  };
  sim.schedule_after(0, tick);
  sim.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(sim.now(), 999 * 7);
  EXPECT_EQ(sim.events_processed(), 1000u);
}

TEST(Simulator, PendingEventsAccountsForCancellations) {
  Simulator sim;
  const auto a = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

/// Cancelling an id whose event already fired must be a true no-op: it
/// neither disturbs later events nor corrupts the pending count. (The old
/// heap scheduler tombstoned such ids forever; the liveness table must not
/// regress this into resurrecting or double-freeing the slot.)
TEST(Simulator, CancelOfAlreadyFiredEventIsNoOp) {
  Simulator sim;
  int fired = 0;
  const auto a = sim.schedule_at(10, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);

  sim.cancel(a);  // already fired: nothing to cancel
  sim.cancel(a);  // idempotent
  EXPECT_EQ(sim.pending_events(), 0u);

  // Later events are unaffected by the stale cancel.
  sim.schedule_at(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_processed(), 2u);
}

/// Determinism: two identical schedules must produce identical execution
/// orders — the foundation of Lumina's reproducible tests.
TEST(Simulator, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_at((i * 37) % 50, [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Reserved ids and passed(): the deferred-completion calls
// ---------------------------------------------------------------------------

TEST(SimulatorReserved, LateFiledIdFiresInItsSlotAmongSameTickEvents) {
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(10, [&] { order.push_back('A'); });        // id 1
  const std::uint64_t r = sim.reserve_id();                  // id 2
  sim.schedule_at(10, [&] { order.push_back('B'); });        // id 3
  sim.schedule_timer_at(10, [&] { order.push_back('T'); });  // id 4
  // Filed from an earlier event, after B and T were scheduled; C is
  // scheduled after the filing and still sorts behind it.
  sim.schedule_at(5, [&] {
    sim.schedule_reserved(10, r, [&] { order.push_back('R'); });
    sim.schedule_at(10, [&] { order.push_back('C'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'R', 'B', 'T', 'C'}));
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorReserved, ReserveAndReleaseLeaveTheCountersAlone) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  const std::uint64_t doomed = sim.schedule_at(20, [] {});
  sim.cancel(doomed);
  const std::size_t pending = sim.pending_events();
  const std::size_t depth = sim.max_queue_depth();
  const std::uint64_t cancels = sim.cancel_requests();

  const std::uint64_t r = sim.reserve_id();
  EXPECT_EQ(r, doomed + 1);  // the id the next schedule call would take
  EXPECT_EQ(sim.pending_events(), pending);
  EXPECT_EQ(sim.max_queue_depth(), depth);
  EXPECT_EQ(sim.cancel_requests(), cancels);
  EXPECT_EQ(sim.events_processed(), 0u);

  sim.release_id(r);
  EXPECT_EQ(sim.pending_events(), pending);
  EXPECT_EQ(sim.max_queue_depth(), depth);
  EXPECT_EQ(sim.cancel_requests(), cancels);
  EXPECT_EQ(sim.schedule_at(30, [] {}), r + 1);  // ids stay dense
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorReserved, PassedInsideACallbackComparesIdsAtTheSameTick) {
  Simulator sim;
  const std::uint64_t lower = sim.reserve_id();
  bool checked = false;
  sim.schedule_at(10, [&] {
    checked = true;
    EXPECT_TRUE(sim.passed(10, lower));
    EXPECT_FALSE(sim.passed(10, lower + 2));
    EXPECT_TRUE(sim.passed(9, lower + 2));
    EXPECT_FALSE(sim.passed(11, lower));
  });
  const std::uint64_t higher = sim.reserve_id();
  EXPECT_EQ(higher, lower + 2);
  EXPECT_FALSE(sim.passed(0, lower));  // nothing has fired yet
  sim.run_until(10);
  EXPECT_TRUE(checked);
  sim.release_id(lower);
  sim.release_id(higher);
}

TEST(SimulatorReserved, UnstoppedRunsPassEverythingUpToNow) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  const std::uint64_t r = sim.reserve_id();
  sim.run_until(50);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_TRUE(sim.passed(50, r));
  EXPECT_TRUE(sim.passed(50, ~std::uint64_t{0}));
  EXPECT_FALSE(sim.passed(51, 1));

  sim.schedule_at(80, [] {});
  EXPECT_FALSE(sim.passed(80, r));
  sim.run();
  EXPECT_EQ(sim.now(), 80);
  EXPECT_TRUE(sim.passed(80, ~std::uint64_t{0}));
  EXPECT_FALSE(sim.passed(81, 1));
  sim.release_id(r);
}

TEST(SimulatorReserved, StopInsideRunUntilLeavesEarlierEventsUnpassed) {
  Simulator sim;
  const std::uint64_t first = sim.schedule_at(10, [&] { sim.stop(); });
  const std::uint64_t second = sim.schedule_at(20, [] {});
  sim.run_until(100);
  // The clock reads the deadline, but the event at 20 is still pending.
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.passed(10, first));
  EXPECT_FALSE(sim.passed(20, second));
  EXPECT_FALSE(sim.passed(100, second + 1));
  sim.run_until(100);
  EXPECT_TRUE(sim.passed(20, second));
  EXPECT_TRUE(sim.passed(100, second + 1));
}

TEST(SimulatorReserved, PassedTracksFiringOrderAcrossTimersAndCalendar) {
  // Every slot has passed exactly when the events fired so far include it
  // or, for a reserved slot that is never filed, an event sorting after it.
  Simulator sim;
  struct Slot {
    Tick when;
    std::uint64_t id;
    bool reserved;
    bool fired;
  };
  std::vector<Slot> slots;
  const auto precedes = [](const Slot& a, const Slot& b) {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  };
  const auto check_all = [&] {
    for (const Slot& s : slots) {
      EXPECT_EQ(sim.passed(s.when, s.id), s.fired)
          << "at " << sim.now() << " slot (" << s.when << ", " << s.id << ")";
    }
  };
  const auto add = [&](Tick when, bool timer) {
    const std::size_t index = slots.size();
    slots.push_back({when, 0, false, false});
    auto cb = [&, index] {
      Slot& self = slots[index];
      self.fired = true;
      for (Slot& s : slots) {
        if (s.reserved && precedes(s, self)) s.fired = true;
      }
      check_all();
    };
    slots[index].id = timer ? sim.schedule_timer_at(when, std::move(cb))
                            : sim.schedule_at(when, std::move(cb));
  };
  add(10, /*timer=*/true);
  add(10, /*timer=*/false);
  add(5, /*timer=*/true);
  add(10, /*timer=*/true);
  add(7, /*timer=*/false);
  const std::uint64_t r = sim.reserve_id();
  slots.push_back({10, r, true, false});
  add(10, /*timer=*/false);
  add(11, /*timer=*/true);
  add(12, /*timer=*/false);
  check_all();
  sim.run_until(10);
  for (Slot& s : slots) EXPECT_EQ(s.fired, s.when <= 10);
  check_all();
  sim.run();
  for (Slot& s : slots) EXPECT_TRUE(s.fired);
  check_all();
  sim.release_id(r);
}

class SimulatorLoadTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorLoadTest, ProcessesAllScheduledEvents) {
  const int n = GetParam();
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < n; ++i) {
    sim.schedule_at((i * 7919) % 1000, [&fired] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, n);
  EXPECT_EQ(sim.pending_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Load, SimulatorLoadTest,
                         ::testing::Values(1, 10, 1000, 50000));

}  // namespace
}  // namespace lumina
