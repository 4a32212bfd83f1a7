#include "orchestrator_probe.h"

#include <memory>

namespace perfbench {
namespace {

using lumina::Orchestrator;

constexpr lumina::Tick kHeartbeat = 100 * lumina::kMicrosecond;

/// Marks the phase boundaries inside run() with simulated events. An event
/// scheduled at t=0 before run() fires ahead of all traffic (lowest id at
/// the earliest tick) and stamps the start of simulation. A heartbeat every
/// 100 us of simulated time stamps the end: it stops re-arming once the
/// generator reports every flow finished or nothing else is pending. One
/// event parked at the deadline would be cheaper to write but slows the
/// calendar queue markedly, so the heartbeat keeps the queue's span short.
class PhaseProbe {
 public:
  explicit PhaseProbe(Orchestrator& orch) : orch_(orch) {
    orch_.sim().schedule_at(0, [this] {
      ++events_;
      sim_begin_ = Clock::now();
      began_ = true;
      arm();
    });
  }
  PhaseProbe(const PhaseProbe&) = delete;
  PhaseProbe& operator=(const PhaseProbe&) = delete;

  bool began() const { return began_; }
  bool ended() const { return ended_; }
  Clock::time_point sim_begin() const { return sim_begin_; }
  Clock::time_point sim_end() const { return sim_end_; }
  /// Events the probe itself added to the kernel.
  std::uint64_t events() const { return events_; }

 private:
  void arm() {
    orch_.sim().schedule_after(kHeartbeat, [this] { beat(); });
  }
  void beat() {
    ++events_;
    if (orch_.generator().finished() || orch_.sim().pending_events() == 0) {
      sim_end_ = Clock::now();
      ended_ = true;
      return;
    }
    arm();
  }

  Orchestrator& orch_;
  bool began_ = false;
  bool ended_ = false;
  Clock::time_point sim_begin_{};
  Clock::time_point sim_end_{};
  std::uint64_t events_ = 0;
};

void count_layers(Orchestrator& orch, const PhaseProbe& probe,
                  Tracer& tracer) {
  const lumina::TestResult& result = orch.result();
  tracer.count("orchestrator.hosts", orch.num_hosts());
  tracer.count("sim.events",
               static_cast<double>(orch.events_processed() - probe.events()));
  tracer.count("sim.events_cancelled",
               static_cast<double>(orch.sim().cancel_requests()));
  tracer.maximum("sim.queue_depth_max",
                 static_cast<double>(orch.sim().max_queue_depth()));
  tracer.count("trace.packets", static_cast<double>(result.trace.size()));

  const lumina::SwitchRoceCounters& sw = result.switch_counters;
  tracer.count("injector.roce_rx", static_cast<double>(sw.roce_rx));
  tracer.count("injector.mirrored", static_cast<double>(sw.mirrored));
  tracer.count("injector.ecn_marked_by_queue",
               static_cast<double>(sw.ecn_marked_by_queue));
  tracer.count("injector.dropped_by_event",
               static_cast<double>(sw.dropped_by_event));
  for (int p = 0; p < orch.injector().num_ports(); ++p) {
    tracer.count("injector.port_drops",
                 static_cast<double>(orch.injector().port(p).counters().drops));
  }
  for (const auto& dumper : orch.dumpers()) {
    const lumina::DumperCounters& dc = dumper->counters();
    tracer.count("dumper.received", static_cast<double>(dc.received));
    tracer.count("dumper.captured", static_cast<double>(dc.captured));
  }
  for (const auto& counters : result.host_counters) {
    tracer.count("rnic.tx_packets", static_cast<double>(counters.tx_packets));
    tracer.count("rnic.retransmitted_packets",
                 static_cast<double>(counters.retransmitted_packets));
    tracer.count("rnic.np_cnp_sent", static_cast<double>(counters.np_cnp_sent));
  }
}

}  // namespace

double traced_orchestrator_run(
    const lumina::TestConfig& config, const Orchestrator::Options& options,
    Tracer& tracer, const std::function<void(Orchestrator&)>& inspect) {
  const auto build_start = Clock::now();
  auto orch = std::make_unique<Orchestrator>(config, options);
  const auto build_end = Clock::now();
  tracer.span("orchestrator.build_ms", build_start, build_end);

  PhaseProbe probe(*orch);
  const auto run_start = Clock::now();
  orch->run();
  const auto run_end = Clock::now();
  const int run_span = tracer.span("orchestrator.run_ms", run_start, run_end);
  const auto sim_begin = probe.began() ? probe.sim_begin() : run_start;
  const auto sim_end = probe.ended() ? probe.sim_end() : run_end;
  tracer.span("orchestrator.prepare_ms", run_start, sim_begin, run_span);
  tracer.span("sim.run_ms", sim_begin, sim_end, run_span);
  tracer.span("orchestrator.collect_ms", sim_end, run_end, run_span);
  count_layers(*orch, probe, tracer);

  inspect(*orch);

  const auto teardown_start = Clock::now();
  orch.reset();
  const auto teardown_end = Clock::now();
  tracer.span("orchestrator.teardown_ms", teardown_start, teardown_end);
  return ms_between(build_start, build_end) + ms_between(run_start, run_end) +
         ms_between(teardown_start, teardown_end);
}

}  // namespace perfbench
