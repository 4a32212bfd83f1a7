// Differential test: the hierarchical timing wheel against the per-event
// calendar-queue timer path.
//
// schedule_timer_at/after must be observationally identical to plain
// schedule_at/after — same (when, id) firing order, same returned ids,
// same counters including max_queue_depth (tombstone lifetime parity).
// This harness reuses the scripted-workload idea of
// sim_differential_test.cc: seeded-random scripts mixing plain events and
// timer events, heavy cancel/re-arm churn (the retransmission-timer
// pattern), nested scheduling, run_until slicing — executed once with the
// kWheel backend and once with kCalendar (which routes timers through
// schedule_at, the reference path), asserting identical observations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace lumina {
namespace {

enum class OpKind {
  kScheduleAt,      // plain event at absolute `tick`
  kScheduleAfter,   // plain event at now + `tick`
  kTimerAt,         // timer at absolute `tick`
  kTimerAfter,      // timer at now + `tick`
  kRearm,           // cancel slot `target`, then arm a timer (RTO pattern)
  kCancelSlot,      // cancel the id recorded for slot `target`
  kCancelRaw,       // cancel ids never handed out
  kStop,            // stop() — callback-only
  kRun,             // run() — top-level only
  kRunUntil,        // run_until(tick) — top-level only
};

struct Op {
  OpKind kind;
  Tick tick = 0;
  int slot = -1;
  int target = -1;
};

struct Script {
  std::vector<Op> top;
  std::vector<std::vector<Op>> body;  // indexed by slot
};

class ScriptGen {
 public:
  explicit ScriptGen(std::uint64_t seed) : rng_(seed) {}

  Script generate() {
    Script s;
    const int top_ops = 8 + static_cast<int>(rng_() % 48);
    for (int i = 0; i < top_ops; ++i) {
      s.top.push_back(top_op(s));
    }
    s.top.push_back({OpKind::kRun});
    return s;
  }

  /// The retransmission-timer shape the wheel's floor is built for: a few
  /// QPs each keep an RTO armed while a chain of plain events tens of ns
  /// apart (the calendar) carries "ACK"s that cancel and re-arm them, so
  /// nearly every step consults the wheel with a limit below its floor.
  /// Occasional long gaps in the chain let timers fire (and retry), and
  /// run_until deadlines inside those gaps let the wheel run ahead through
  /// tombstones before the re-arms that follow rewind it.
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
    switch (rng_() % 12) {
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

  Op schedule_op(Script& s, int depth) {
    const int slot = static_cast<int>(s.body.size());
    s.body.emplace_back();
    if (depth < 3) {
      const int body_ops = static_cast<int>(rng_() % 4);
      for (int i = 0; i < body_ops; ++i) {
        Op op;  // materialize before indexing: s.body may grow
        switch (rng_() % 8) {
          case 0:
            op = cancel_op();
            break;
          case 1:
            if (depth >= 1) {
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
      case 3: {
        // The RTO idiom: disarm whatever a previous slot armed, arm anew.
        op.kind = OpKind::kRearm;
        op.tick = rto_delay();
        if (!slots_seen_.empty()) {
          op.target = slots_seen_[rng_() % slots_seen_.size()];
        }
        break;
      }
      default:
        op.kind = OpKind::kTimerAfter;
        op.tick = rto_delay();
        break;
    }
    op.slot = slot;
    slots_seen_.push_back(slot);
    return op;
  }

  Op cancel_op() {
    if (slots_seen_.empty() || rng_() % 8 == 0) {
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
      case 1:  // sparse far future — crosses several wheel levels
        return static_cast<Tick>(rng_() % 3'000'000);
      default:  // clustered near-term
        return static_cast<Tick>(rng_() % 4096);
    }
  }

  Tick rto_delay() {
    switch (rng_() % 8) {
      case 0:  // same-tick / sub-slot ties
        return static_cast<Tick>(rng_() % 4);
      case 1:  // level-boundary bait: around 64^k cascade edges
        return (Tick{1} << (6 * (1 + static_cast<int>(rng_() % 3)))) -
               2 + static_cast<Tick>(rng_() % 4);
      case 2:  // far enough out to sit in level 3+
        return static_cast<Tick>(rng_() % 40'000'000);
      default:  // realistic RTO range: tens to hundreds of microseconds
        return static_cast<Tick>(20'000 + rng_() % 500'000);
    }
  }

  std::mt19937_64 rng_;
  std::vector<int> slots_seen_;
};

struct Observation {
  std::vector<std::pair<int, Tick>> firings;
  std::vector<std::uint64_t> ids;
  Tick final_now = 0;
  std::uint64_t events_processed = 0;
  std::size_t pending_events = 0;
  std::size_t max_queue_depth = 0;
  std::uint64_t cancel_requests = 0;
};

Observation execute(const Script& script, Simulator::TimerBackend backend) {
  Simulator sched;
  sched.set_timer_backend(backend);
  Observation obs;
  obs.ids.assign(script.body.size(), 0);

  struct Ctx {
    Simulator& sched;
    const Script& script;
    Observation& obs;

    // Defined before apply(): the two are mutually recursive and apply()
    // needs callback()'s deduced return type.
    Simulator::Callback callback(int slot) {
      return [this, slot] {
        obs.firings.emplace_back(slot, sched.now());
        for (const Op& op : script.body[static_cast<std::size_t>(slot)]) {
          apply(op);
        }
      };
    }

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
              sched.schedule_timer_at(op.tick, callback(op.slot));
          break;
        case OpKind::kTimerAfter:
          obs.ids[static_cast<std::size_t>(op.slot)] =
              sched.schedule_timer_after(op.tick, callback(op.slot));
          break;
        case OpKind::kRearm:
          if (op.target >= 0) {
            sched.cancel(obs.ids[static_cast<std::size_t>(op.target)]);
          }
          obs.ids[static_cast<std::size_t>(op.slot)] =
              sched.schedule_timer_after(op.tick, callback(op.slot));
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

constexpr int kWorkloads = 1200;

TEST(TimerDifferential, WheelMatchesPerEventTimers) {
  int total_firings = 0;
  int total_cancels = 0;
  for (int seed = 1; seed <= kWorkloads; ++seed) {
    ScriptGen gen(static_cast<std::uint64_t>(seed) * 0xbf58476d1ce4e5b9ULL);
    const Script script = gen.generate();

    const Observation got =
        execute(script, Simulator::TimerBackend::kWheel);
    const Observation want =
        execute(script, Simulator::TimerBackend::kCalendar);

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

    const Observation got =
        execute(script, Simulator::TimerBackend::kWheel);
    const Observation want =
        execute(script, Simulator::TimerBackend::kCalendar);

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

// A long-lived churn soak on one simulator instance: a fixed population of
// "QPs" each keeps exactly one timer armed, re-arming with fresh deadlines
// from its callback and getting disarmed/re-armed by a periodic "ACK"
// event — the steady state the wheel is built for. Checked against the
// calendar backend.
TEST(TimerDifferential, SteadyStateChurnMatches) {
  // Static so the local Driver struct below can name them.
  static constexpr int kQps = 257;
  static constexpr Tick kHorizon = 40'000'000;

  auto run = [&](Simulator::TimerBackend backend) {
    Simulator sim;
    sim.set_timer_backend(backend);
    std::vector<std::uint64_t> timer_ids(kQps, 0);
    std::vector<std::pair<int, Tick>> fires;
    std::mt19937_64 rng(0x5eed);

    struct Driver {
      Simulator& sim;
      std::vector<std::uint64_t>& timer_ids;
      std::vector<std::pair<int, Tick>>& fires;
      std::mt19937_64& rng;

      void arm(int qp) {
        const Tick rto = 20'000 + static_cast<Tick>(rng() % 300'000);
        timer_ids[static_cast<std::size_t>(qp)] =
            sim.schedule_timer_after(rto, [this, qp] {
              fires.emplace_back(qp, sim.now());
              arm(qp);  // back-to-back re-arm, like an RTO retry
            });
      }

      void ack_tick(Tick period) {
        sim.schedule_after(period, [this, period] {
          // "ACK": disarm + re-arm a pseudo-random third of the QPs.
          for (int qp = 0; qp < kQps; ++qp) {
            if (rng() % 3 != 0) continue;
            sim.cancel(timer_ids[static_cast<std::size_t>(qp)]);
            arm(qp);
          }
          ack_tick(period);
        });
      }
    };
    Driver driver{sim, timer_ids, fires, rng};
    for (int qp = 0; qp < kQps; ++qp) driver.arm(qp);
    driver.ack_tick(/*period=*/70'001);
    sim.run_until(kHorizon);

    return std::tuple(fires, sim.events_processed(), sim.pending_events(),
                      sim.max_queue_depth(), sim.now());
  };

  const auto got = run(Simulator::TimerBackend::kWheel);
  const auto want = run(Simulator::TimerBackend::kCalendar);
  EXPECT_EQ(std::get<0>(got), std::get<0>(want));
  EXPECT_EQ(std::get<1>(got), std::get<1>(want));
  EXPECT_EQ(std::get<2>(got), std::get<2>(want));
  EXPECT_EQ(std::get<3>(got), std::get<3>(want));
  EXPECT_EQ(std::get<4>(got), std::get<4>(want));
}

}  // namespace
}  // namespace lumina
