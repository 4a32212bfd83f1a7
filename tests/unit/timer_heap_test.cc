// Unit tests for the timer heap (sim/timer_heap.h): (when, id) firing
// order, the exclusive limit, same-tick id ordering, deadlines on 64^k
// boundaries and past 2^48 ns, tombstone reclamation timing, slot reuse,
// and determinism under seeded churn. The equivalence with per-event
// timers at the Simulator level lives in sim_differential_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_id_table.h"
#include "sim/timer_heap.h"

namespace lumina {
namespace {

constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();
constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();

/// Drives the heap the way the Simulator does: allocate ids densely,
/// fire by killing the id then popping the callback.
class TimerHarness {
 public:
  std::uint64_t arm(Tick deadline) {
    const std::uint64_t id = next_id_++;
    ids_.on_allocated(id);
    timers_.arm(deadline, id, InlineCallback{[] {}});
    return id;
  }

  void cancel(std::uint64_t id) { ids_.kill(id); }

  /// Fires everything due up to `limit`, returning (when, id) in order.
  std::vector<std::pair<Tick, std::uint64_t>> drain(Tick limit = kMaxTick) {
    std::vector<std::pair<Tick, std::uint64_t>> fired;
    for (;;) {
      if (!timers_.peek_due(limit, kMaxId, ids_)) break;
      fired.emplace_back(timers_.due_when(), timers_.due_id());
      ids_.kill(timers_.due_id());
      timers_.pop_due()();
    }
    return fired;
  }

  TimerHeap& timers() { return timers_; }

 private:
  TimerHeap timers_;
  EventIdTable ids_;
  std::uint64_t next_id_ = 1;
};

/// A seeded script over a TimerHarness that remembers every timer it arms
/// and cancels: the expected firings are the never-cancelled arms in
/// (when, id) order. `now` is the simulated time, which arms never precede.
class SeededScript {
 public:
  explicit SeededScript(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t arm(Tick deadline) {
    const std::uint64_t id = h_.arm(deadline);
    armed_.emplace_back(deadline, id);
    live_.insert(id);
    return id;
  }

  /// Cancels `id` unless it already fired.
  void cancel(std::uint64_t id) {
    if (live_.erase(id) == 0) return;
    h_.cancel(id);
    cancelled_.insert(id);
  }

  /// Fires what is due up to `limit` (the calendar head in the Simulator),
  /// then moves the clock to `new_now`: `limit` when the head fires, less
  /// when a run_until deadline stops the run short of it.
  std::vector<std::pair<Tick, std::uint64_t>> advance(Tick limit,
                                                      Tick new_now) {
    auto fired = h_.drain(limit);
    for (const auto& f : fired) {
      live_.erase(f.second);
      fired_.push_back(f);
    }
    now = new_now;
    return fired;
  }
  std::vector<std::pair<Tick, std::uint64_t>> advance(Tick limit) {
    return advance(limit, limit);
  }

  std::vector<std::pair<Tick, std::uint64_t>> expected() const {
    std::vector<std::pair<Tick, std::uint64_t>> want;
    for (const auto& a : armed_) {
      if (cancelled_.count(a.second) == 0) want.push_back(a);
    }
    std::sort(want.begin(), want.end());
    return want;
  }
  const std::vector<std::pair<Tick, std::uint64_t>>& fired() const {
    return fired_;
  }

  Tick jitter(Tick span) { return static_cast<Tick>(rng_() % span); }

  TimerHarness& harness() { return h_; }
  Tick now = 0;

 private:
  TimerHarness h_;
  std::mt19937_64 rng_;
  std::vector<std::pair<Tick, std::uint64_t>> armed_;
  std::set<std::uint64_t> live_;
  std::set<std::uint64_t> cancelled_;
  std::vector<std::pair<Tick, std::uint64_t>> fired_;
};

/// Case 1: arms a few thousand ns out, interleaved with limits that stop
/// just short of, exactly at and past their deadlines around a 4096-ns
/// (64^2) boundary.
void arms_around_a_boundary(SeededScript& s, Tick base) {
  s.arm(base + 100);
  s.advance(base + 100);  // fires
  s.arm(base + 4160 + s.jitter(36));
  s.advance(base + 150);  // nothing due
  s.arm(base + 4196 + s.jitter(3900));
  s.advance(base + 4100);
  s.arm(base + 4196 + s.jitter(3900));
  s.advance(base + 4160);  // a limit exactly at the first deadline
  s.arm(base + 4160 + s.jitter(64));
  s.advance(base + 9000);
}

/// Case 2: arms below reclaimed ground. A run_until stopped short of a far
/// calendar head lets the store reclaim tombstones up to that head while
/// the clock stays behind; later arms land between the clock and the
/// reclaimed tombstones.
void arms_behind_reclaimed_tombstones(SeededScript& s, Tick base) {
  s.arm(base);
  s.advance(base);
  for (int i = 0; i < 8; ++i) {
    s.cancel(s.arm(base + 1'000 + s.jitter(200'000)));
  }
  s.arm(base + 250'000 + s.jitter(10'000));
  s.advance(base + 240'000, /*new_now=*/base);
  s.arm(base + 5'000 + s.jitter(60'000));  // behind reclaimed ground
  s.arm(base + 500 + s.jitter(500));       // and again
  s.advance(base + 400'000);
}

/// Case 3: RTO-shaped churn. Calendar events every few tens of ns while
/// each of 16 QPs keeps one retransmission timer armed 100-150 us out; an
/// "ACK" every ~2.5 us cancels and re-arms one QP's timer, and QPs take
/// turns going quiet for ~200 us, long enough for their timer to fire and
/// re-arm. The caller's limit stays below every armed deadline almost
/// throughout.
void rto_churn(SeededScript& s, Tick base) {
  constexpr int kQps = 16;
  constexpr int kSteps = 20'000;
  std::vector<std::uint64_t> timer(kQps);
  std::vector<int> owner(1, -1);  // by id
  const auto arm_rto = [&](int qp) {
    timer[static_cast<std::size_t>(qp)] =
        s.arm(s.now + 100'000 + s.jitter(50'000));
    owner.resize(timer[static_cast<std::size_t>(qp)] + 1, -1);
    owner.back() = qp;
  };
  s.advance(base);
  for (int qp = 0; qp < kQps; ++qp) arm_rto(qp);
  for (int step = 0; step < kSteps; ++step) {
    for (const auto& f : s.advance(s.now + 20 + s.jitter(60))) {
      arm_rto(owner[static_cast<std::size_t>(f.second)]);  // RTO retry
    }
    const int quiet = (step / 4'000) % kQps;
    const int qp = static_cast<int>(s.jitter(kQps));
    if (step % 50 == 0 && qp != quiet) {
      s.cancel(timer[static_cast<std::size_t>(qp)]);
      arm_rto(qp);
    }
  }
}

TEST(TimerHeap, SeededScriptKeepsOrderAndSideEffects) {
  SeededScript s(0xf1002);
  for (Tick k = 1; k <= 6; ++k) arms_around_a_boundary(s, k << 20);
  for (Tick k = 7; k <= 12; ++k) arms_behind_reclaimed_tombstones(s, k << 20);
  rto_churn(s, Tick{13} << 20);
  s.advance(kMaxTick);

  EXPECT_EQ(s.fired(), s.expected());
  // The values this script produces when every tombstone is reclaimed at
  // its (when, id) turn ahead of the limit: reclaiming one early or late
  // would move them.
  const TimerHeap& t = s.harness().timers();
  EXPECT_EQ(t.reclaimed_total(), 422u);
  EXPECT_EQ(t.max_stored(), 57u);
}

TEST(TimerHeap, FiresInDeadlineThenIdOrder) {
  TimerHarness h;
  const auto a = h.arm(500);
  const auto b = h.arm(100);
  const auto c = h.arm(100);  // same tick as b, larger id
  const auto d = h.arm(3);

  const auto fired = h.drain();
  const std::vector<std::pair<Tick, std::uint64_t>> want = {
      {3, d}, {100, b}, {100, c}, {500, a}};
  EXPECT_EQ(fired, want);
  EXPECT_TRUE(h.timers().empty());
  EXPECT_EQ(h.timers().fired_total(), 4u);
}

TEST(TimerHeap, LimitIsExclusiveBoundary) {
  TimerHarness h;
  h.arm(100);
  const auto b = h.arm(50);
  EXPECT_EQ(h.drain(/*limit=*/99).size(), 1u);  // only the 50 fires
  EXPECT_EQ(h.timers().fired_total(), 1u);
  EXPECT_EQ(h.timers().stored(), 1u);
  EXPECT_EQ(h.drain().size(), 1u);  // the 100 fires once the limit lifts
  (void)b;
}

TEST(TimerHeap, SameTickTiesSortById) {
  TimerHarness h;
  // Same deadline armed around an earlier timer that fires first: all
  // three must still fire in id order at tick 70000.
  std::vector<std::uint64_t> ids;
  ids.push_back(h.arm(70'000));
  ids.push_back(h.arm(70'000));
  h.arm(60'000);  // fires on its own before the tie
  ids.push_back(h.arm(70'000));

  auto fired = h.drain(/*limit=*/60'000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 60'000);

  fired = h.drain();
  ASSERT_EQ(fired.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fired[i].first, 70'000);
    EXPECT_EQ(fired[i].second, ids[i]);
  }
}

TEST(TimerHeap, PowerOf64BoundaryDeadlines) {
  // Deadlines hugging 64^k edges, where stores that bucket deadlines by
  // bit groups have their off-by-one hot spots.
  TimerHarness h;
  std::vector<Tick> deadlines;
  for (int k = 1; k <= 4; ++k) {
    const Tick edge = Tick{1} << (6 * k);
    for (Tick d : {edge - 1, edge, edge + 1}) deadlines.push_back(d);
  }
  deadlines.push_back(0);
  deadlines.push_back(1);
  std::vector<std::pair<Tick, std::uint64_t>> want;
  for (const Tick d : deadlines) want.emplace_back(d, h.arm(d));
  std::sort(want.begin(), want.end());

  EXPECT_EQ(h.drain(), want);
}

TEST(TimerHeap, CancelledTimerNeverFiresAndReclaimsAtItsTurn) {
  TimerHarness h;
  const auto a = h.arm(1'000);
  const auto b = h.arm(2'000);
  h.cancel(a);
  EXPECT_EQ(h.timers().stored(), 2u);  // tombstone still occupies storage

  // Draining below the tombstone's deadline must not reclaim it...
  EXPECT_TRUE(h.drain(/*limit=*/999).empty());
  EXPECT_EQ(h.timers().stored(), 2u);

  // ...but passing it does, without firing.
  const auto fired = h.drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].second, b);
  EXPECT_EQ(h.timers().reclaimed_total(), 1u);
  EXPECT_TRUE(h.timers().empty());
}

TEST(TimerHeap, RearmChurnRecyclesSlots) {
  // The RTO pattern: one armed timer per connection, constantly
  // cancel+re-armed. Callback slots must plateau at the population size
  // plus the tombstones not yet passed, not grow with churn volume.
  TimerHarness h;
  Tick now = 0;
  std::uint64_t armed = h.arm(now + 10'000);
  for (int i = 1; i <= 5'000; ++i) {
    now += 1'000;
    EXPECT_TRUE(h.drain(/*limit=*/now).empty());  // reclaims passed stones
    h.cancel(armed);
    armed = h.arm(now + 10'000);
  }
  const auto fired = h.drain();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].second, armed);
  EXPECT_EQ(h.timers().reclaimed_total(), 5'000u);
  // One live timer plus ~10 rounds of not-yet-passed tombstones in
  // flight at any moment: slot storage plateaus at the churn window, not
  // the 5001 total arms.
  EXPECT_LT(h.timers().slot_capacity(), 64u);
}

TEST(TimerHeap, DeadlinesAroundTwoToThe48) {
  TimerHarness h;
  const Tick two_48 = Tick{1} << 48;
  const auto far = h.arm(two_48 + 12'345);
  const auto near = h.arm(77);
  const auto mid = h.arm(two_48 - 1);

  const auto fired = h.drain();
  const std::vector<std::pair<Tick, std::uint64_t>> want = {
      {77, near}, {two_48 - 1, mid}, {two_48 + 12'345, far}};
  EXPECT_EQ(fired, want);
}

TEST(TimerHeap, DeterministicUnderSeededChurn) {
  auto run = [] {
    TimerHarness h;
    std::mt19937_64 rng(0xc0ffee);
    std::vector<std::pair<Tick, std::uint64_t>> fired;
    std::vector<std::uint64_t> live;
    Tick now = 0;
    for (int round = 0; round < 2'000; ++round) {
      const int arms = static_cast<int>(rng() % 4);
      for (int i = 0; i < arms; ++i) {
        live.push_back(h.arm(now + static_cast<Tick>(rng() % 300'000)));
      }
      if (!live.empty() && rng() % 3 == 0) {
        const std::size_t victim = rng() % live.size();
        h.cancel(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      now += static_cast<Tick>(rng() % 5'000);
      for (const auto& f : h.drain(now)) fired.push_back(f);
    }
    for (const auto& f : h.drain()) fired.push_back(f);
    return fired;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Fire order is globally sorted by (when, id).
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_LT(first[i - 1], first[i]);
  }
}

}  // namespace
}  // namespace lumina
