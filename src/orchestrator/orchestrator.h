// Orchestrator (§3.1, Fig. 1): builds the testbed and drives one
// experiment on it.
//
//   host 0 --- [port 0]                            [port N]   --- dumper 0
//   host 1 --- [port 1]  EVENT-INJECTOR SWITCH     [port N+1] --- dumper 1
//   ...        [...]                               [...]      --- ...
//   host N-1 - [port N-1]
//
// The constructor normalizes the config and builds the testbed around the
// injector switch: one RNIC per host on switch port i (per-host NicType,
// GIDs and RoCE knobs), an L3 route for every host GID, the dumper pool
// behind the hosts, and a dense telemetry track per NIC
// (telemetry::nic_track). run() translates user intents into injector
// rules, runs the experiment, collects results (Table 1), reconstructs the
// packet trace, and runs the integrity check (docs/topology.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "config/test_config.h"
#include "dumper/dumper.h"
#include "host/traffic_generator.h"
#include "injector/switch.h"
#include "orchestrator/trace.h"
#include "packet/packet_arena.h"
#include "rnic/rnic.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace lumina {

/// Everything the orchestrator gathers after a run (Table 1). Counters are
/// keyed by host index; hosts 0/1 keep requester/responder accessors for
/// the classic two-host shape.
struct TestResult {
  PacketTrace trace;
  IntegrityReport integrity;
  /// NIC counters of host i (testbed port order). Starts as the zeroed
  /// classic pair so synthetic results behave like the old two-member
  /// struct; collect_results() replaces it with one entry per host.
  std::vector<RnicCounters> host_counters{RnicCounters{}, RnicCounters{}};
  SwitchRoceCounters switch_counters;
  std::vector<FlowMetrics> flows;
  std::vector<ConnectionMetadata> connections;
  RdmaVerb verb = RdmaVerb::kWrite;
  bool finished = false;  ///< Traffic completed before the deadline.
  Tick duration = 0;
  /// Merged telemetry scrape (docs/telemetry.md) — a pure function of
  /// (config, seed); serialized as report.json's deterministic section.
  telemetry::MetricsSnapshot telemetry;

  const RnicCounters& requester_counters() const { return host_counters.at(0); }
  const RnicCounters& responder_counters() const { return host_counters.at(1); }
  RnicCounters& requester_counters() { return host_counters.at(0); }
  RnicCounters& responder_counters() { return host_counters.at(1); }
};

class Orchestrator {
 public:
  struct Options {
    EventInjectorSwitch::Options switch_options;
    TrafficDumper::Options dumper_options;
    int num_dumpers = 2;
    std::uint64_t seed = 0xC0FFEE;
    /// Ablation: program intents as *relative* rules resolved by in-switch
    /// QP discovery instead of the stock stateless control-plane join
    /// (§3.3). Connection binding then depends on flow arrival order.
    bool stateful_qp_discovery = false;
    /// Per-run metrics registry + event tracer, scraped into
    /// TestResult::telemetry and exported by results_io as report.json.
    /// Off only for overhead ablations (bench/telemetry_overhead).
    bool enable_telemetry = true;
    /// Retired event-kernel shard count, kept only so existing callers
    /// compile: every node runs on one Simulator, and any value but 1
    /// throws std::invalid_argument.
    int shards = 1;
  };

  explicit Orchestrator(TestConfig config);
  Orchestrator(TestConfig config, Options options);
  ~Orchestrator();

  /// Runs the complete experiment and returns the collected results.
  const TestResult& run();

  const TestResult& result() const { return result_; }

  // Component access for targeted tests and ablation benches.
  /// The event kernel every node of the testbed schedules on.
  Simulator& sim() { return sim_; }
  std::uint64_t events_processed() { return sim_.events_processed(); }
  EventInjectorSwitch& injector() { return *switch_; }
  int num_hosts() { return static_cast<int>(nics_.size()); }
  Rnic& nic(int host) { return *nics_[static_cast<std::size_t>(host)]; }
  Rnic& requester_nic() { return nic(0); }
  Rnic& responder_nic() { return nic(1); }
  TrafficGenerator& generator() { return *generator_; }
  std::vector<std::unique_ptr<TrafficDumper>>& dumpers() { return dumpers_; }

  /// Null when Options::enable_telemetry is false.
  telemetry::MetricsRegistry* metrics() { return metrics_.get(); }
  telemetry::TraceSink* trace_sink() { return trace_sink_.get(); }

  /// Translates one relative user intent (Listing 2) into the absolute
  /// match-action rule installed on the injector (Fig. 2). Exposed for the
  /// intent-translation unit tests.
  EventRule translate_intent(const DataPacketEvent& intent) const;

 private:
  void build_testbed();
  void program_injector();
  void collect_results();
  void scrape_telemetry();

  TestConfig config_;
  Options options_;
  /// Recycles wire-byte buffers across the run; installed as the
  /// thread-current arena for the duration of run() (docs/simulator.md).
  PacketArena arena_;
  // The testbed. Declared in build order, so it is destroyed in reverse:
  // the nodes before the kernel they schedule on, the kernel before the
  // telemetry the nodes report into.
  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  std::unique_ptr<telemetry::TraceSink> trace_sink_;
  telemetry::Telemetry telemetry_;
  Simulator sim_;
  std::unique_ptr<EventInjectorSwitch> switch_;
  std::vector<std::unique_ptr<Rnic>> nics_;
  std::vector<std::unique_ptr<TrafficDumper>> dumpers_;
  std::unique_ptr<TrafficGenerator> generator_;
  TestResult result_;
  bool ran_ = false;
};

}  // namespace lumina
