#include "orchestrator/orchestrator.h"

#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace lumina {

Orchestrator::Orchestrator(TestConfig config)
    : Orchestrator(std::move(config), Options{}) {}

Orchestrator::Orchestrator(TestConfig config, Options options)
    : config_(std::move(config)), options_(options) {
  if (options_.shards != 1) {
    throw std::invalid_argument(
        "Orchestrator::Options::shards is retired: the sharded event kernel "
        "was removed and every run uses one Simulator (got " +
        std::to_string(options_.shards) + ")");
  }
  // Default host names, collision-free GIDs, connection expansion — the
  // config becomes a complete testbed description here.
  config_.normalize();
  build_testbed();
}

Orchestrator::~Orchestrator() = default;

void Orchestrator::build_testbed() {
  TestbedSpec spec;
  spec.hosts = config_.hosts;
  spec.switch_options = options_.switch_options;
  spec.dumper_options = options_.dumper_options;
  spec.num_dumpers = options_.num_dumpers;
  spec.link_propagation = options_.link_propagation;
  spec.trim_mirrors = options_.trim_mirrors;
  spec.enable_telemetry = options_.enable_telemetry;
  testbed_ = std::make_unique<Testbed>(std::move(spec));

  std::vector<Rnic*> nics;
  for (int i = 0; i < testbed_->num_hosts(); ++i) {
    nics.push_back(&testbed_->nic(i));
  }
  generator_ = std::make_unique<TrafficGenerator>(
      &testbed_->sim(), std::move(nics), config_.hosts,
      config_.connections, config_.traffic, config_.ets, options_.seed);
  generator_->attach_telemetry(testbed_->telemetry());
}

EventRule Orchestrator::translate_intent(const DataPacketEvent& intent) const {
  // Fig. 2: join the relative intent with the runtime metadata announced by
  // the traffic generator. Data packets flow requester->responder for
  // Send/Write; for Read the data (responses) flows responder->requester
  // but reuses the *requester's* PSN space, so the absolute PSN is always
  // IPSN_requester + psn - 1.
  const auto& conns = generator_->connections();
  const auto idx = static_cast<std::size_t>(intent.qpn - 1);
  if (idx >= conns.size()) {
    throw YamlError("event references connection " +
                    std::to_string(intent.qpn) + " but only " +
                    std::to_string(conns.size()) + " exist");
  }
  const ConnectionMetadata& meta = conns[idx];
  EventRule rule;
  if (config_.traffic.verb == RdmaVerb::kRead) {
    rule.flow = FlowKey{meta.responder.ip, meta.requester.ip,
                        meta.requester.qpn};
  } else {
    rule.flow = FlowKey{meta.requester.ip, meta.responder.ip,
                        meta.responder.qpn};
  }
  rule.psn = psn_add(meta.requester.ipsn, static_cast<std::int64_t>(intent.psn) - 1);
  rule.iter = intent.iter;
  rule.action = intent.type;
  rule.delay = intent.delay;
  rule.fault = intent.fault;
  return rule;
}

void Orchestrator::program_injector() {
  if (options_.stateful_qp_discovery) {
    // Ablation: hand the switch relative intents; the data plane discovers
    // QPs and materializes rules itself. No metadata is shared.
    for (const auto& intent : config_.traffic.data_pkt_events) {
      testbed_->injector().install_relative_rule(
          EventInjectorSwitch::RelativeEventRule{intent.qpn, intent.psn,
                                                 intent.iter, intent.type,
                                                 intent.delay, intent.fault});
    }
    return;
  }
  // The requester shares complete traffic metadata with the injector's
  // control plane (§3.3) — register every data-direction flow for ITER
  // tracking, then install the translated rules.
  for (const auto& meta : generator_->connections()) {
    FlowKey flow;
    if (config_.traffic.verb == RdmaVerb::kRead) {
      flow = FlowKey{meta.responder.ip, meta.requester.ip, meta.requester.qpn};
    } else {
      flow = FlowKey{meta.requester.ip, meta.responder.ip, meta.responder.qpn};
    }
    testbed_->injector().register_flow(flow, meta.requester.ipsn);
  }
  for (const auto& intent : config_.traffic.data_pkt_events) {
    testbed_->injector().install_rule(translate_intent(intent));
  }
}

const TestResult& Orchestrator::run() {
  if (ran_) return result_;
  ran_ = true;

  PacketArena::Scope arena_scope(&arena_);
  generator_->setup();
  program_injector();  // tables must be populated before traffic starts
  generator_->start();

  sim().run_until(options_.max_sim_time);
  result_.finished = generator_->finished();
  result_.duration = sim().now();

  collect_results();
  return result_;
}

void Orchestrator::collect_results() {
  EventInjectorSwitch& injector = testbed_->injector();
  // TERM all dumpers, then merge their stores by mirror sequence number.
  std::vector<CaptureStore> captures;
  for (auto& dumper : testbed_->dumpers()) {
    dumper->terminate();
    captures.push_back(dumper->take_capture());
  }
  result_.integrity = reconstruct_trace(
      std::move(captures), injector.mirror_engine().mirrored_count(),
      injector.roce_counters().roce_rx, result_.trace);
  // Join the injector's delay-release log: analyzers that replay the trace
  // in receiver order (gbn_fsm) need to know when a delay-held packet
  // actually left the switch.
  if (const auto& releases = injector.delay_releases(); !releases.empty()) {
    for (auto& tp : result_.trace.packets) {
      if (const auto it = releases.find(tp.meta.mirror_seq);
          it != releases.end()) {
        tp.released_at = it->second;
      }
    }
  }

  result_.host_counters.clear();
  for (int i = 0; i < testbed_->num_hosts(); ++i) {
    result_.host_counters.push_back(testbed_->nic(i).counters());
  }
  result_.switch_counters = injector.roce_counters();
  result_.verb = config_.traffic.verb;
  result_.connections = generator_->connections();
  for (int i = 0; i < generator_->num_connections(); ++i) {
    result_.flows.push_back(generator_->metrics(i));
  }

  if (options_.enable_telemetry) {
    scrape_telemetry();
    result_.telemetry = testbed_->metrics()->snapshot();
  }
}

/// End-of-run scrape: component counters that are cheap to keep as plain
/// integers during the run land in the registry only here, alongside the
/// histograms the hot paths populated live.
void Orchestrator::scrape_telemetry() {
  telemetry::MetricsRegistry& reg = *testbed_->metrics();
  telemetry::TraceSink& trace_sink = *testbed_->trace_sink();
  EventInjectorSwitch& injector = testbed_->injector();

  const Simulator& sim = testbed_->sim();
  reg.counter("sim.events_processed").inc(sim.events_processed());
  reg.counter("sim.events_cancelled").inc(sim.cancel_requests());
  reg.gauge("sim.queue_depth_max")
      .set(static_cast<std::int64_t>(sim.max_queue_depth()));
  reg.gauge("sim.time_ns").set(sim.now());
  reg.counter("sim.trace_recorded").inc(trace_sink.recorded());
  reg.counter("sim.trace_dropped").inc(trace_sink.dropped());

  const SwitchRoceCounters& sw = injector.roce_counters();
  reg.counter("injector.roce_rx").inc(sw.roce_rx);
  reg.counter("injector.roce_tx").inc(sw.roce_tx);
  reg.counter("injector.mirrored").inc(sw.mirrored);
  reg.counter("injector.events_applied").inc(sw.events_applied);
  reg.counter("injector.dropped_by_event").inc(sw.dropped_by_event);
  reg.counter("injector.ecn_marked_by_queue").inc(sw.ecn_marked_by_queue);
  // Stateful-fault metrics register only when the fault actually fired:
  // runs without the new event vocabulary keep a byte-identical metric set
  // (the campaign baseline contract, docs/fuzzing.md).
  const SwitchFaultStats& fs = injector.fault_stats();
  if (fs.burst_channels_started != 0) {
    reg.counter("injector.burst_channels_started")
        .inc(fs.burst_channels_started);
  }
  if (fs.burst_loss_dropped != 0) {
    reg.counter("injector.burst_loss_dropped").inc(fs.burst_loss_dropped);
  }
  if (fs.duplicates_emitted != 0) {
    reg.counter("injector.duplicates_emitted").inc(fs.duplicates_emitted);
  }
  if (fs.pause_storms != 0) {
    reg.counter("injector.pause_storms").inc(fs.pause_storms);
    reg.counter("injector.pause_frames_sent").inc(fs.pause_frames_sent);
  }
  if (fs.link_flaps != 0) {
    reg.counter("injector.link_flaps").inc(fs.link_flaps);
    reg.counter("injector.flap_queued_dropped").inc(fs.flap_queued_dropped);
  }
  if (fs.delays_applied != 0) {
    reg.counter("injector.delays_applied").inc(fs.delays_applied);
  }
  for (int p = 0; p < injector.num_ports(); ++p) {
    const PortCounters& pc = injector.port(p).counters();
    const std::string prefix = "injector.port" + std::to_string(p) + ".";
    reg.gauge(prefix + "max_queued_bytes")
        .set(static_cast<std::int64_t>(pc.max_queued_bytes));
    reg.counter(prefix + "drops").inc(pc.drops);
  }

  for (int i = 0; i < testbed_->num_hosts(); ++i) {
    const Rnic& nic = testbed_->nic(i);
    const std::string prefix = "rnic." + nic.name() + ".";
    for (const auto& [counter, value] : nic.counters().entries()) {
      reg.counter(prefix + counter).inc(value);
    }
    // PFC pause metrics exist only in runs where pause frames flowed, so
    // storm-free runs keep a byte-identical metric set.
    const RnicPauseStats& ps = nic.pause_stats();
    if (ps.pause_frames_rx != 0 || ps.pause_resumes_rx != 0) {
      reg.counter(prefix + "pause_frames_rx").inc(ps.pause_frames_rx);
      reg.counter(prefix + "pause_resumes_rx").inc(ps.pause_resumes_rx);
      reg.counter(prefix + "paused_ns").inc(ps.paused_ns);
    }
  }

  reg.gauge("host.flows").set(generator_->num_connections());
}

}  // namespace lumina
