#include "orchestrator/orchestrator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace lumina {

namespace {

/// Propagation delay of every testbed link.
constexpr Tick kLinkPropagation = 250;
/// Hard deadline for a run; generous relative to every experiment.
constexpr Tick kMaxSimTime = 100 * kSecond;

}  // namespace

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
  // config becomes a complete testbed description here. It always holds
  // at least two hosts and one connection afterwards.
  config_.normalize();
  build_testbed();
}

Orchestrator::~Orchestrator() = default;

void Orchestrator::build_testbed() {
  const std::vector<HostConfig>& hosts = config_.hosts;
  if (options_.enable_telemetry) {
    metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    trace_sink_ = std::make_unique<telemetry::TraceSink>();
    trace_sink_->set_track_name(telemetry::kTrackSim, "sim");
    trace_sink_->set_track_name(telemetry::kTrackInjector, "injector");
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      trace_sink_->set_track_name(telemetry::nic_track(static_cast<int>(i)),
                                  hosts[i].name + "-nic");
    }
    trace_sink_->set_track_name(telemetry::kTrackHost, "host");
    telemetry_.metrics = metrics_.get();
    telemetry_.trace = trace_sink_.get();
  }

  // Switch-port layout: host i on port i, dumper j on port N + j.
  const int num_hosts = static_cast<int>(hosts.size());
  switch_ = std::make_unique<EventInjectorSwitch>(
      &sim_, num_hosts + options_.num_dumpers, options_.switch_options);

  // One RNIC per host. The MAC stride keeps hosts 0/1 on the historical
  // ...aa/...bb addresses, so two-host wire bytes (and the goldens hashed
  // from them) are unchanged.
  double fastest_gbps = 0;
  for (int i = 0; i < num_hosts; ++i) {
    const HostConfig& host = hosts[static_cast<std::size_t>(i)];
    const DeviceProfile& profile = DeviceProfile::get(host.nic_type);
    fastest_gbps = std::max(fastest_gbps, profile.link_gbps);
    auto nic = std::make_unique<Rnic>(
        &sim_, host.name, profile, host.roce,
        MacAddress::from_u48(0x0200000000aaULL +
                             0x11ULL * static_cast<std::uint64_t>(i)),
        telemetry::nic_track(i));
    connect(nic->port(), switch_->port(i),
            LinkParams{profile.link_gbps, kLinkPropagation});
    // Routes: every GID of a host resolves to its switch port.
    for (const auto& ip : host.ip_list) switch_->add_route(ip, i);
    nics_.push_back(std::move(nic));
  }

  // Traffic dumper pool: links sized like the fastest host link (§3.4 —
  // pooling is what makes slower dumpers viable; benches vary this).
  std::vector<int> targets;
  for (int j = 0; j < options_.num_dumpers; ++j) {
    auto dumper =
        std::make_unique<TrafficDumper>(&sim_, options_.dumper_options);
    connect(dumper->port(), switch_->port(num_hosts + j),
            LinkParams{fastest_gbps, kLinkPropagation});
    targets.push_back(num_hosts + j);
    dumpers_.push_back(std::move(dumper));
  }
  switch_->set_mirror_targets(std::move(targets));

  telemetry::Telemetry* telemetry =
      options_.enable_telemetry ? &telemetry_ : nullptr;
  if (telemetry != nullptr) {
    switch_->attach_telemetry(telemetry);
    for (auto& nic : nics_) nic->attach_telemetry(telemetry);
  }

  std::vector<Rnic*> nics;
  for (auto& nic : nics_) nics.push_back(nic.get());
  generator_ = std::make_unique<TrafficGenerator>(
      &sim_, std::move(nics), hosts, config_.connections, config_.traffic,
      config_.ets, options_.seed);
  generator_->attach_telemetry(telemetry);
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
      switch_->install_relative_rule(
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
    switch_->register_flow(flow, meta.requester.ipsn);
  }
  for (const auto& intent : config_.traffic.data_pkt_events) {
    switch_->install_rule(translate_intent(intent));
  }
}

const TestResult& Orchestrator::run() {
  if (ran_) return result_;
  ran_ = true;

  PacketArena::Scope arena_scope(&arena_);
  generator_->setup();
  program_injector();  // tables must be populated before traffic starts
  generator_->start();

  sim_.run_until(kMaxSimTime);
  result_.finished = generator_->finished();
  result_.duration = sim_.now();

  collect_results();
  return result_;
}

void Orchestrator::collect_results() {
  EventInjectorSwitch& injector = *switch_;
  // TERM all dumpers, then merge their stores by mirror sequence number.
  std::vector<CaptureStore> captures;
  for (auto& dumper : dumpers_) {
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
  for (const auto& nic : nics_) {
    result_.host_counters.push_back(nic->counters());
  }
  result_.switch_counters = injector.roce_counters();
  result_.verb = config_.traffic.verb;
  result_.connections = generator_->connections();
  for (int i = 0; i < generator_->num_connections(); ++i) {
    result_.flows.push_back(generator_->metrics(i));
  }

  if (options_.enable_telemetry) {
    scrape_telemetry();
    result_.telemetry = metrics_->snapshot();
  }
}

/// End-of-run scrape: component counters that are cheap to keep as plain
/// integers during the run land in the registry only here, alongside the
/// histograms the hot paths populated live.
void Orchestrator::scrape_telemetry() {
  telemetry::MetricsRegistry& reg = *metrics_;
  EventInjectorSwitch& injector = *switch_;

  reg.counter("sim.events_processed").inc(sim_.events_processed());
  reg.counter("sim.events_cancelled").inc(sim_.cancel_requests());
  reg.gauge("sim.queue_depth_max")
      .set(static_cast<std::int64_t>(sim_.max_queue_depth()));
  reg.gauge("sim.time_ns").set(sim_.now());
  reg.counter("sim.trace_recorded").inc(trace_sink_->recorded());
  reg.counter("sim.trace_dropped").inc(trace_sink_->dropped());

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

  for (const auto& nic : nics_) {
    const std::string prefix = "rnic." + nic->name() + ".";
    for (const auto& [counter, value] : nic->counters().entries()) {
      reg.counter(prefix + counter).inc(value);
    }
    // PFC pause metrics exist only in runs where pause frames flowed, so
    // storm-free runs keep a byte-identical metric set.
    const RnicPauseStats& ps = nic->pause_stats();
    if (ps.pause_frames_rx != 0 || ps.pause_resumes_rx != 0) {
      reg.counter(prefix + "pause_frames_rx").inc(ps.pause_frames_rx);
      reg.counter(prefix + "pause_resumes_rx").inc(ps.pause_resumes_rx);
      reg.counter(prefix + "paused_ns").inc(ps.paused_ns);
    }
  }

  reg.gauge("host.flows").set(generator_->num_connections());
}

}  // namespace lumina
