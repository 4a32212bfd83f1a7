// QP-state scaling sweep (docs/rnic.md): how far the RNIC model's
// connection bookkeeping carries before it becomes the wall.
//
// For each scale n in 1e2 → 1e5 (1e6 with --full, nightly CI only) the
// bench drives QP creation and the retransmission timers end to end on
// one host NIC:
//
//   Phase A (setup)  — create n RC QPs in the NIC's QP store; measures QP
//                      construction and qpn-map fill.
//   Phase B (churn)  — every QP holds one armed retransmission timer and
//                      an ACK-paced workload cancels + re-arms it for
//                      several rounds, the steady state of a healthy
//                      fabric where RTOs almost never fire; ends with all
//                      timers cancelled and the timer heap reclaiming the
//                      tombstones.
//   Phase C (storm)  — an incast loss burst: every QP's RTO is armed
//                      inside one narrow window and ALL of them expire.
//
// Deterministic counters (live QPs, timer arm/fire/reclaim totals and
// peak, simulator events) are a pure function of n — the CI bench gate
// diffs them against bench/baselines/qp_scaling_baseline.json at zero
// tolerance. Wall-clock per-op costs are printed only, so the report's
// "wall" section stays empty.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "rnic/device_profile.h"
#include "rnic/qp.h"
#include "rnic/rnic.h"
#include "sim/simulator.h"
#include "telemetry/report.h"
#include "util/random.h"
#include "util/time.h"

using namespace lumina;
using namespace lumina::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr Tick kRto = 500'000;  // 500 us retransmission timeout
constexpr int kChurnRounds = 4;

struct Sample {
  std::size_t qps = 0;
  // Deterministic (pure function of n).
  std::size_t qps_live = 0;
  std::uint64_t timer_armed = 0;
  std::uint64_t timer_fired = 0;
  std::uint64_t timer_reclaimed = 0;
  std::size_t timer_max_stored = 0;
  std::uint64_t sim_events = 0;
  // Wall clock.
  double setup_ms = 0;
  double churn_ms = 0;
  double storm_ms = 0;
};

Sample run_scale(std::size_t n) {
  Sample s;
  s.qps = n;

  Simulator sim;
  Rnic nic(&sim, "qp-scaling-nic", DeviceProfile::get(NicType::kCx6Dx),
           RoceParameters{}, MacAddress::from_u48(0x0200000000aaULL));

  // Phase A: bulk QP creation.
  QpConfig qc;
  qc.timeout = kRto;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) nic.create_qp(qc);
  s.setup_ms = ms_since(start);
  s.qps_live = nic.qp_count();

  // Phase B: ACK-paced timer churn. Each "ACK" cancels the QP's armed RTO
  // and re-arms it one RTT later — the dominant timer pattern on a healthy
  // fabric. Calendar events play the ACK arrivals; the RTOs live in the
  // timer heap. After kChurnRounds every timer is cancelled, so the heap
  // ends the phase holding only tombstones, which the run loop reclaims.
  std::vector<std::uint64_t> armed(n);
  Rng rng(0x51AB5CA1E);
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    armed[i] = sim.schedule_timer_after(
        kRto + static_cast<Tick>(rng.next_below(1024)), [] {});
  }
  for (int round = 0; round < kChurnRounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      // ACK for QP i arrives mid-RTO, spread over a 64 us window.
      const Tick ack_at =
          sim.now() + kRto / 2 + static_cast<Tick>(rng.next_below(65536));
      const bool last = round == kChurnRounds - 1;
      sim.schedule_at(ack_at, [&sim, &armed, i, last, &rng] {
        sim.cancel(armed[i]);
        if (!last) {
          armed[i] = sim.schedule_timer_after(
              kRto + static_cast<Tick>(rng.next_below(1024)), [] {});
        }
      });
    }
    sim.run();  // drain this round's ACKs (and reclaim dead timers)
  }
  s.churn_ms = ms_since(start);

  // Phase C: incast retransmission storm. A synchronized loss burst arms
  // every QP's RTO inside one 4 us window; nothing cancels them, so all n
  // expire together.
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    sim.schedule_timer_after(kRto + static_cast<Tick>(rng.next_below(4096)),
                             [] {});
  }
  sim.run();
  s.storm_ms = ms_since(start);

  const TimerHeap& timers = sim.timers();
  s.timer_armed = timers.armed_total();
  s.timer_fired = timers.fired_total();
  s.timer_reclaimed = timers.reclaimed_total();
  s.timer_max_stored = timers.max_stored();
  s.sim_events = sim.events_processed();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_out;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      report_out = argv[++i];
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out report.json] [--full]\n",
                   argv[0]);
      return 2;
    }
  }

  heading("QP scaling: QP setup, timer churn, retransmission storm");

  // The per-PR sweep stops at 1e5 (and so does the checked-in baseline);
  // --full appends the 1e6 point for the nightly job. The big point's
  // counters stay out of the report so the baseline diff is identical in
  // both modes.
  std::vector<std::size_t> scales = {100, 1'000, 10'000, 100'000};
  if (full) scales.push_back(1'000'000);

  Table table({"qps", "setup_ms", "churn_ms", "storm_ms", "ns/arm",
               "timer_max"});
  telemetry::RunReport report;
  report.name = "qp-scaling";
  std::vector<Sample> samples;
  for (const std::size_t n : scales) {
    samples.push_back(run_scale(n));
    const Sample& s = samples.back();
    const double ns_per_arm =
        (s.churn_ms + s.storm_ms) * 1e6 / static_cast<double>(s.timer_armed);
    table.add_row({std::to_string(s.qps), fmt("%.1f", s.setup_ms),
                   fmt("%.1f", s.churn_ms), fmt("%.1f", s.storm_ms),
                   fmt("%.0f", ns_per_arm),
                   std::to_string(s.timer_max_stored)});
    if (s.qps > 100'000) continue;  // nightly-only point: wall-clock only
    const std::string prefix = "qp_scaling.n" + std::to_string(s.qps) + ".";
    report.deterministic.counters[prefix + "qps_live"] = s.qps_live;
    report.deterministic.counters[prefix + "timer_armed"] = s.timer_armed;
    report.deterministic.counters[prefix + "timer_fired"] = s.timer_fired;
    report.deterministic.counters[prefix + "timer_reclaimed"] =
        s.timer_reclaimed;
    report.deterministic.counters[prefix + "timer_max_stored"] =
        s.timer_max_stored;
    report.deterministic.counters[prefix + "sim_events"] = s.sim_events;
  }
  table.print();

  ShapeCheck check;
  bool qps_exact = true, conserved = true;
  for (const Sample& s : samples) {
    qps_exact = qps_exact && s.qps_live == s.qps;
    // Every armed timer either fired (storm + the churn stragglers the
    // ACKs raced) or was reclaimed as a tombstone; none may leak.
    conserved =
        conserved && s.timer_armed == s.timer_fired + s.timer_reclaimed;
  }
  check.expect(qps_exact, "the NIC holds exactly n live QPs at every scale");
  check.expect(conserved,
               "every armed timer is accounted for (fired or reclaimed)");
  check.expect(samples.back().timer_max_stored >= samples.back().qps,
               "the timer heap held one armed RTO per QP at peak");
  // Near-flat arm/cancel: per-op cost at the top scale stays within 8x of
  // the smallest scale (a calendar queue degrades far worse; the loose
  // factor absorbs the heap's log n and cache effects on shared CI
  // runners).
  const auto per_op = [](const Sample& s) {
    return (s.churn_ms + s.storm_ms) / static_cast<double>(s.timer_armed);
  };
  check.expect(per_op(samples.back()) <= 8 * per_op(samples.front()) ||
                   per_op(samples.back()) * 1e6 < 250,
               "per-timer cost stays near-flat across the sweep");

  if (!report_out.empty()) {
    std::string failed;
    if (!telemetry::write_report(report, report_out, &failed)) {
      std::fprintf(stderr, "error: failed to write %s\n", failed.c_str());
      return 2;
    }
    std::printf("\nreport written to %s\n", report_out.c_str());
  }
  return check.print_and_exit_code();
}
