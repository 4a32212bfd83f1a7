// Event-kernel microbench: schedule/fire/cancel throughput of the
// calendar-queue Simulator against the retired binary-heap scheduler
// (sim/reference_scheduler.h) across queue depths 1e2 .. 1e6.
//
// Four workloads per depth:
//   churn   — steady-state hold-and-replace: every fired event schedules a
//             successor a small random gap ahead, keeping `depth` events
//             pending. This is the simulator's production load shape
//             (clustered timestamps, queue depth ~ #in-flight packets).
//   timers  — churn plus 1000 armed retransmission-shaped timers that are
//             cancelled and re-armed: the Simulator files them in its
//             timer heap, which it consults before every event it fires.
//   cancel  — schedule `depth` events, cancel half of them by id, then
//             drain. Exercises O(1) tombstoning vs the heap's hash set.
//   sparse  — timestamps spread over a 1e12-tick span, the calendar
//             queue's worst case (direct-search fallback).
//
// Wall-clock numbers are hardware-dependent and reported only; the shape
// checks enforce what must always hold: both kernels fire identical event
// counts from identical scripts, and the calendar queue does not lose to
// the heap on the production-shaped churn load at depth >= 1e4.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bench_util.h"
#include "sim/reference_scheduler.h"
#include "sim/simulator.h"

using namespace lumina;
using namespace lumina::bench;

namespace {

struct Sample {
  double ops_per_sec = 0;
  std::uint64_t fired = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Steady-state hold-and-replace: fires `ops` events while keeping `depth`
/// pending; each firing schedules one successor.
template <typename Sched>
Sample churn(std::size_t depth, std::uint64_t ops, std::uint64_t seed) {
  struct Ctx {
    Sched sched;
    std::mt19937_64 rng;
    std::uint64_t remaining = 0;
    std::uint64_t fired = 0;

    void tick() {
      ++fired;
      if (remaining == 0) return;
      --remaining;
      sched.schedule_after(static_cast<Tick>(rng() % 4096),
                           [this] { tick(); });
    }
  };
  Ctx ctx;
  ctx.rng.seed(seed);
  ctx.remaining = ops;
  for (std::size_t i = 0; i < depth; ++i) {
    ctx.sched.schedule_at(static_cast<Tick>(ctx.rng() % 4096),
                          [&ctx] { ctx.tick(); });
  }
  const auto start = std::chrono::steady_clock::now();
  ctx.sched.run();
  const double wall = seconds_since(start);
  return {static_cast<double>(ctx.fired) / wall, ctx.fired};
}

/// `churn` plus `qps` armed RTO-shaped timers. One firing in eight is an
/// "ACK" that cancels a random QP's timer and re-arms it 100-150 us out; a
/// timer that fires re-arms itself. Once `ops` calendar firings are done,
/// nothing re-arms and the run drains. The Simulator files the timers in
/// its timer heap; the reference scheduler has none and schedules them as
/// plain events, which fire identically.
template <typename Sched>
Sample timers(std::size_t depth, std::size_t qps, std::uint64_t ops,
              std::uint64_t seed) {
  struct Ctx {
    Sched sched;
    std::mt19937_64 rng;
    std::vector<std::uint64_t> timer;
    std::uint64_t remaining = 0;
    std::uint64_t fired = 0;

    void arm(std::size_t qp) {
      const Tick rto = 100'000 + static_cast<Tick>(rng() % 50'000);
      auto expire = [this, qp] {
        ++fired;
        if (remaining > 0) arm(qp);  // retry
      };
      if constexpr (std::is_same_v<Sched, Simulator>) {
        timer[qp] = sched.schedule_timer_after(rto, std::move(expire));
      } else {
        timer[qp] = sched.schedule_after(rto, std::move(expire));
      }
    }

    void tick() {
      ++fired;
      if (remaining == 0) return;
      --remaining;
      if (rng() % 8 == 0) {
        const std::size_t qp = rng() % timer.size();
        sched.cancel(timer[qp]);
        arm(qp);
      }
      sched.schedule_after(static_cast<Tick>(rng() % 4096),
                           [this] { tick(); });
    }
  };
  Ctx ctx;
  ctx.rng.seed(seed);
  ctx.remaining = ops;
  ctx.timer.assign(qps, 0);
  for (std::size_t qp = 0; qp < qps; ++qp) ctx.arm(qp);
  for (std::size_t i = 0; i < depth; ++i) {
    ctx.sched.schedule_at(static_cast<Tick>(ctx.rng() % 4096),
                          [&ctx] { ctx.tick(); });
  }
  const auto start = std::chrono::steady_clock::now();
  ctx.sched.run();
  const double wall = seconds_since(start);
  return {static_cast<double>(ctx.fired) / wall, ctx.fired};
}

/// Schedule `depth`, cancel every other id, drain. Counts schedule+cancel+
/// fire as operations.
template <typename Sched>
Sample cancel_heavy(std::size_t depth, std::uint64_t seed) {
  Sched sched;
  std::mt19937_64 rng(seed);
  std::uint64_t fired = 0;
  std::vector<std::uint64_t> ids;
  ids.reserve(depth);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < depth; ++i) {
    ids.push_back(sched.schedule_at(static_cast<Tick>(rng() % (depth * 8)),
                                    [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    sched.cancel(ids[i]);
  }
  sched.run();
  const double wall = seconds_since(start);
  const double ops =
      static_cast<double>(depth) + static_cast<double>((depth + 1) / 2) +
      static_cast<double>(fired);
  return {ops / wall, fired};
}

/// Wide-span timestamps: the calendar's sparse fallback path.
template <typename Sched>
Sample sparse(std::size_t depth, std::uint64_t seed) {
  Sched sched;
  std::mt19937_64 rng(seed);
  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule_at(static_cast<Tick>(rng() % 1'000'000'000'000ULL),
                      [&fired] { ++fired; });
  }
  sched.run();
  const double wall = seconds_since(start);
  return {static_cast<double>(depth + fired) / wall, fired};
}

std::string mops(double ops_per_sec) {
  return fmt("%.2f", ops_per_sec / 1e6);
}

}  // namespace

int main() {
  heading("Event-kernel throughput: calendar queue vs reference heap");

  const std::vector<std::size_t> depths = {100, 1'000, 10'000, 100'000,
                                           1'000'000};
  ShapeCheck check;

  subheading("churn: hold depth, fire-and-replace (Mops/s)");
  Table churn_table({"depth", "heap", "calendar", "speedup"});
  double speedup_1e4 = 0;
  for (const std::size_t depth : depths) {
    // Enough churn to dominate setup, bounded so 1e6 stays CI-friendly.
    const std::uint64_t ops = std::max<std::uint64_t>(depth * 2, 200'000);
    const Sample heap = churn<ReferenceScheduler>(depth, ops, depth);
    const Sample cal = churn<Simulator>(depth, ops, depth);
    check.expect(heap.fired == cal.fired,
                 "churn depth " + std::to_string(depth) +
                     ": identical fired counts");
    const double speedup = cal.ops_per_sec / heap.ops_per_sec;
    if (depth == 10'000) speedup_1e4 = speedup;
    churn_table.add_row({std::to_string(depth), mops(heap.ops_per_sec),
                         mops(cal.ops_per_sec), fmt("%.2fx", speedup)});
  }
  churn_table.print();

  subheading("timers: churn + 1000 RTO timers cancelled and re-armed (Mops/s)");
  Table timers_table({"depth", "heap", "calendar+timers", "speedup"});
  for (const std::size_t depth : depths) {
    const std::uint64_t ops = std::max<std::uint64_t>(depth * 2, 200'000);
    const Sample heap = timers<ReferenceScheduler>(depth, 1'000, ops, depth);
    const Sample sim = timers<Simulator>(depth, 1'000, ops, depth);
    check.expect(heap.fired == sim.fired,
                 "timers depth " + std::to_string(depth) +
                     ": identical fired counts");
    timers_table.add_row({std::to_string(depth), mops(heap.ops_per_sec),
                          mops(sim.ops_per_sec),
                          fmt("%.2fx", sim.ops_per_sec / heap.ops_per_sec)});
  }
  timers_table.print();

  subheading("cancel-heavy: schedule N, cancel N/2, drain (Mops/s)");
  Table cancel_table({"depth", "heap", "calendar", "speedup"});
  for (const std::size_t depth : depths) {
    const Sample heap = cancel_heavy<ReferenceScheduler>(depth, depth);
    const Sample cal = cancel_heavy<Simulator>(depth, depth);
    check.expect(heap.fired == cal.fired,
                 "cancel depth " + std::to_string(depth) +
                     ": identical fired counts");
    cancel_table.add_row({std::to_string(depth), mops(heap.ops_per_sec),
                          mops(cal.ops_per_sec),
                          fmt("%.2fx", cal.ops_per_sec / heap.ops_per_sec)});
  }
  cancel_table.print();

  subheading("sparse: 1e12-tick span, schedule-then-drain (Mops/s)");
  Table sparse_table({"depth", "heap", "calendar", "speedup"});
  for (const std::size_t depth : depths) {
    const Sample heap = sparse<ReferenceScheduler>(depth, depth);
    const Sample cal = sparse<Simulator>(depth, depth);
    check.expect(heap.fired == cal.fired,
                 "sparse depth " + std::to_string(depth) +
                     ": identical fired counts");
    sparse_table.add_row({std::to_string(depth), mops(heap.ops_per_sec),
                          mops(cal.ops_per_sec),
                          fmt("%.2fx", cal.ops_per_sec / heap.ops_per_sec)});
  }
  sparse_table.print();

  // The overhaul exists to win on the production load shape; everything
  // else must merely not regress correctness (checked above).
  check.expect(speedup_1e4 >= 1.0,
               "calendar >= heap on churn at depth 1e4 (" +
                   fmt("%.2f", speedup_1e4) + "x)");

  return check.print_and_exit_code();
}
