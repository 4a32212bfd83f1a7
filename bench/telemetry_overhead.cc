// Telemetry overhead: what does the observability layer cost?
//
// Two angles:
//   micro — ns/op for the hot-path primitives (counter inc, gauge
//           high-water update, histogram observe, trace-ring
//           record), measured over a few million iterations;
//   macro — the same orchestrator experiment run with telemetry enabled
//           and disabled (Orchestrator::Options::enable_telemetry),
//           comparing wall time and verifying the simulation outcome is
//           bit-identical either way — instrumentation must observe the
//           run, never perturb it.
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/bench_util.h"
#include "config/test_config.h"
#include "orchestrator/orchestrator.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

using namespace lumina;
using namespace lumina::bench;

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point start, Clock::time_point stop,
                 std::uint64_t ops) {
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(ops);
}

TestConfig macro_config() {
  TestConfig cfg;
  cfg.traffic.num_connections = 3;
  cfg.traffic.num_msgs_per_qp = 16;
  cfg.traffic.message_size = 30720;
  cfg.traffic.mtu = 1024;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 3, EventType::kDrop, 1});
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{2, 7, EventType::kEcn, 1});
  return cfg;
}

struct MacroSample {
  double wall_ms = 0;
  Tick duration = 0;
  std::size_t trace_packets = 0;
  bool finished = false;
};

MacroSample run_macro(bool enable_telemetry) {
  Orchestrator::Options options;
  options.enable_telemetry = enable_telemetry;
  Orchestrator orch(macro_config(), options);
  const auto start = Clock::now();
  const TestResult& result = orch.run();
  const auto stop = Clock::now();
  MacroSample sample;
  sample.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  sample.duration = result.duration;
  sample.trace_packets = result.trace.size();
  sample.finished = result.finished;
  return sample;
}

double best_of(std::vector<double> values) {
  double best = values[0];
  for (const double v : values) best = std::min(best, v);
  return best;
}

}  // namespace

int main() {
  heading("Telemetry overhead: hot-path primitives + instrumented runs");

  // --- micro: primitive costs --------------------------------------------
  constexpr std::uint64_t kOps = 4'000'000;
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("bench.counter");
  telemetry::Gauge& gauge = registry.gauge("bench.gauge");
  telemetry::Histogram& histogram = registry.histogram(
      "bench.histogram", telemetry::BucketBounds::exponential(64, 2.0, 16));
  telemetry::TraceSink sink(1 << 12);

  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) counter.inc();
  auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    gauge.record_max(static_cast<std::int64_t>(i & 0xFFF));
  }
  auto t2 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    histogram.observe(static_cast<std::int64_t>((i * 37) & 0x3FFFF));
  }
  auto t3 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    sink.instant("bench", "ev", static_cast<Tick>(i), telemetry::kTrackSim,
                 static_cast<std::int64_t>(i));
  }
  auto t4 = Clock::now();

  const double counter_ns = ns_per_op(t0, t1, kOps);
  const double gauge_ns = ns_per_op(t1, t2, kOps);
  const double histogram_ns = ns_per_op(t2, t3, kOps);
  const double trace_ns = ns_per_op(t3, t4, kOps);

  subheading("primitive cost (single thread)");
  Table micro({"primitive", "ns/op"});
  micro.add_row({"Counter::inc", fmt("%.1f", counter_ns)});
  micro.add_row({"Gauge::record_max", fmt("%.1f", gauge_ns)});
  micro.add_row({"Histogram::observe", fmt("%.1f", histogram_ns)});
  micro.add_row({"TraceSink::record", fmt("%.1f", trace_ns)});
  micro.print();

  // --- macro: instrumented vs bare orchestrator runs ---------------------
  constexpr int kRepeats = 5;
  run_macro(true);  // warm-up
  std::vector<double> with_ms;
  std::vector<double> without_ms;
  MacroSample with_sample;
  MacroSample without_sample;
  for (int r = 0; r < kRepeats; ++r) {
    with_sample = run_macro(true);
    with_ms.push_back(with_sample.wall_ms);
    without_sample = run_macro(false);
    without_ms.push_back(without_sample.wall_ms);
  }
  const double with_best = best_of(with_ms);
  const double without_best = best_of(without_ms);
  const double overhead_pct =
      without_best > 0 ? (with_best / without_best - 1.0) * 100.0 : 0.0;

  subheading("orchestrator run, telemetry on vs off (best of 5)");
  Table macro({"telemetry", "wall_ms", "sim_ns", "trace_pkts"});
  macro.add_row({"on", fmt("%.2f", with_best),
                 std::to_string(with_sample.duration),
                 std::to_string(with_sample.trace_packets)});
  macro.add_row({"off", fmt("%.2f", without_best),
                 std::to_string(without_sample.duration),
                 std::to_string(without_sample.trace_packets)});
  macro.print();
  std::printf("overhead: %+.1f%%\n", overhead_pct);

  // Determinism: two instrumented runs of the same config must scrape
  // byte-identical deterministic sections.
  Orchestrator first(macro_config());
  Orchestrator second(macro_config());
  const std::string scrape_a =
      telemetry::serialize_deterministic(first.run().telemetry);
  const std::string scrape_b =
      telemetry::serialize_deterministic(second.run().telemetry);

  ShapeCheck check;
  check.expect(with_sample.finished && without_sample.finished,
               "both variants complete the traffic");
  check.expect(with_sample.duration == without_sample.duration,
               "simulated duration identical with telemetry on/off");
  check.expect(with_sample.trace_packets == without_sample.trace_packets,
               "packet trace identical with telemetry on/off");
  check.expect(scrape_a == scrape_b && scrape_a.size() > 500,
               "repeated instrumented runs scrape byte-identical sections");
  check.expect(sink.recorded() == kOps &&
                   sink.dropped() == kOps - sink.size(),
               "trace ring stays bounded and accounts for drops");
  // Generous sanity bounds: these are plain integer updates / a ring store;
  // even a heavily shared CI core should land far below 1 microsecond.
  check.expect(counter_ns < 1000.0 && histogram_ns < 1000.0 &&
                   trace_ns < 1000.0,
               "hot-path primitives cost < 1us/op");
  return check.print_and_exit_code();
}
