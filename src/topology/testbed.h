// Testbed topology layer (§3.1, Fig. 1, generalized to N hosts):
//
//   host 0 --- [port 0]                            [port N]   --- dumper 0
//   host 1 --- [port 1]  EVENT-INJECTOR SWITCH     [port N+1] --- dumper 1
//   ...        [...]                               [...]      --- ...
//   host N-1 - [port N-1]
//
// A TestbedSpec declares *what the testbed is* — the hosts around the
// injector switch (per-host NicType/GIDs/RoCE knobs), the switch and
// dumper options, and the link parameters. The Testbed builder owns *how
// it is wired*: it instantiates one RNIC per host, connects host i to
// switch port i, programs an L3 route for every host GID, attaches the
// dumper pool behind the hosts, and hands each NIC a dense telemetry
// track (telemetry::nic_track). Experiment drivers (Orchestrator) run on
// top of a Testbed and stay topology-agnostic (docs/topology.md).
#pragma once

#include <memory>
#include <vector>

#include "config/test_config.h"
#include "dumper/dumper.h"
#include "injector/switch.h"
#include "rnic/rnic.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace lumina {

/// Declarative description of a testbed instance. `hosts` must already be
/// normalized (names + GIDs filled; TestConfig::normalize does this).
struct TestbedSpec {
  std::vector<HostConfig> hosts;
  EventInjectorSwitch::Options switch_options;
  TrafficDumper::Options dumper_options;
  int num_dumpers = 2;
  Tick link_propagation = 250;
  /// Keep full (untrimmed) mirror copies; the stock tool trims to 128 B.
  bool trim_mirrors = true;
  bool enable_telemetry = true;
};

class Testbed {
 public:
  explicit Testbed(TestbedSpec spec);
  ~Testbed();

  /// The event kernel every node of the testbed schedules on.
  Simulator& sim() { return sim_; }

  EventInjectorSwitch& injector() { return *switch_; }

  int num_hosts() const { return static_cast<int>(nics_.size()); }
  Rnic& nic(int host) { return *nics_[static_cast<std::size_t>(host)]; }
  const HostConfig& host(int index) const {
    return spec_.hosts[static_cast<std::size_t>(index)];
  }

  /// Switch-port layout: host i on port i, dumper j behind the hosts.
  int host_port(int host) const { return host; }
  int dumper_port(int dumper) const { return num_hosts() + dumper; }

  std::vector<std::unique_ptr<TrafficDumper>>& dumpers() { return dumpers_; }
  const TestbedSpec& spec() const { return spec_; }

  /// Null when TestbedSpec::enable_telemetry is false.
  telemetry::MetricsRegistry* metrics() { return metrics_.get(); }
  telemetry::TraceSink* trace_sink() { return trace_sink_.get(); }
  telemetry::Telemetry* telemetry() {
    return metrics_ ? &telemetry_ : nullptr;
  }

 private:
  void build();

  TestbedSpec spec_;
  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  std::unique_ptr<telemetry::TraceSink> trace_sink_;
  telemetry::Telemetry telemetry_;
  Simulator sim_;
  std::unique_ptr<EventInjectorSwitch> switch_;
  std::vector<std::unique_ptr<Rnic>> nics_;
  std::vector<std::unique_ptr<TrafficDumper>> dumpers_;
};

}  // namespace lumina
