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
#include "sim/event_domain.h"
#include "sim/sharded_sim.h"
#include "sim/sim_context.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace lumina {

/// Deterministic event-domain plan for the sharded kernel
/// (docs/simulator.md, "Sharded execution"). Domain ids are a pure
/// function of the topology — switch = 0, host i = 1 + i, dumper j =
/// 1 + num_hosts + j — and a domain executes on shard `domain % shards`,
/// so the placement is reproducible from the config alone and identical
/// for every worker count. The conservative lookahead is the link
/// propagation delay: no domain can affect another sooner than one wire
/// traversal.
struct ShardPlan {
  int shards = 1;
  int num_hosts = 0;
  int num_dumpers = 0;
  Tick lookahead = 250;

  int num_domains() const { return 1 + num_hosts + num_dumpers; }
  DomainId switch_domain() const { return 0; }
  DomainId host_domain(int host) const {
    return static_cast<DomainId>(1 + host);
  }
  DomainId dumper_domain(int dumper) const {
    return static_cast<DomainId>(1 + num_hosts + dumper);
  }
  int shard_of(DomainId domain) const {
    return static_cast<int>(domain % static_cast<DomainId>(shards));
  }
};

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
  /// Pre-sizes every host NIC's QP slab (rnic.md): a large fan-out run
  /// (qp_scaling regime) pays no slab growth during connection setup.
  /// Zero keeps lazy growth.
  std::size_t qp_reserve_per_host = 0;
  /// Event-kernel shards (sim/sharded_sim.h). Must satisfy
  /// 1 <= shards <= num_domains (= 1 + hosts + dumpers); the derived
  /// ShardPlan is recorded in the report. 1 keeps the sequential kernel;
  /// 0 means *auto*: resolve to min(hardware_threads, num_domains) at
  /// construction (the resolved value replaces 0 in spec().shards).
  int shards = 1;
};

class Testbed {
 public:
  explicit Testbed(TestbedSpec spec);
  ~Testbed();

  /// The sequential kernel. Throws std::logic_error when the testbed runs
  /// sharded (shards > 1) — callers that only need the clock or the run
  /// loop should use the kernel-neutral facade below instead.
  Simulator& sim();

  /// True when the data plane runs on the sharded kernel.
  bool is_sharded() const { return sharded_ != nullptr; }
  /// The sharded kernel, or nullptr when running sequentially.
  ShardedSimulator* sharded() { return sharded_.get(); }

  /// Scheduling context bound to `domain` — what every node layer holds
  /// instead of a raw Simulator*. Sequentially the domain tag is inert;
  /// sharded it routes the node's events to its lane.
  SimContext context(DomainId domain);

  // Kernel-neutral run facade (what the Orchestrator drives).
  void run_until(Tick deadline);
  Tick now() const;
  std::uint64_t events_processed() const;
  std::uint64_t cancel_requests() const;
  std::size_t max_queue_depth() const;

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

  /// Topology-derived event-domain plan; valid for any shard count the
  /// constructor accepted.
  const ShardPlan& shard_plan() const { return shard_plan_; }

  /// Null when TestbedSpec::enable_telemetry is false.
  telemetry::MetricsRegistry* metrics() { return metrics_.get(); }
  telemetry::TraceSink* trace_sink() { return trace_sink_.get(); }
  telemetry::Telemetry* telemetry() {
    return metrics_ ? &telemetry_ : nullptr;
  }

 private:
  void build();

  TestbedSpec spec_;
  ShardPlan shard_plan_;
  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  std::unique_ptr<telemetry::TraceSink> trace_sink_;
  telemetry::Telemetry telemetry_;
  std::unique_ptr<Simulator> sim_;           // shards == 1
  std::unique_ptr<ShardedSimulator> sharded_;  // shards > 1
  std::unique_ptr<EventInjectorSwitch> switch_;
  std::vector<std::unique_ptr<Rnic>> nics_;
  std::vector<std::unique_ptr<TrafficDumper>> dumpers_;
};

}  // namespace lumina
