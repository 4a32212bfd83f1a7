#include "topology/testbed.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lumina {

Testbed::Testbed(TestbedSpec spec) : spec_(std::move(spec)) {
  if (spec_.hosts.size() < 2) {
    throw std::invalid_argument("Testbed requires at least 2 hosts");
  }
  build();
}

Testbed::~Testbed() = default;

void Testbed::build() {
  if (spec_.enable_telemetry) {
    metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    trace_sink_ = std::make_unique<telemetry::TraceSink>();
    trace_sink_->set_track_name(telemetry::kTrackSim, "sim");
    trace_sink_->set_track_name(telemetry::kTrackInjector, "injector");
    for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
      trace_sink_->set_track_name(telemetry::nic_track(static_cast<int>(i)),
                                  spec_.hosts[i].name + "-nic");
    }
    trace_sink_->set_track_name(telemetry::kTrackHost, "host");
    telemetry_.metrics = metrics_.get();
    telemetry_.trace = trace_sink_.get();
  }

  const int num_hosts = static_cast<int>(spec_.hosts.size());
  const int num_ports = num_hosts + spec_.num_dumpers;
  switch_ = std::make_unique<EventInjectorSwitch>(&sim_, num_ports,
                                                  spec_.switch_options);

  // One RNIC per host on switch port i. The MAC stride keeps hosts 0/1 on
  // the historical ...aa/...bb addresses, so two-host wire bytes (and the
  // goldens hashed from them) are unchanged.
  double fastest_gbps = 0;
  for (int i = 0; i < num_hosts; ++i) {
    const HostConfig& host = spec_.hosts[static_cast<std::size_t>(i)];
    const DeviceProfile& profile = DeviceProfile::get(host.nic_type);
    fastest_gbps = std::max(fastest_gbps, profile.link_gbps);
    auto nic = std::make_unique<Rnic>(
        &sim_, host.name, profile, host.roce,
        MacAddress::from_u48(0x0200000000aaULL +
                             0x11ULL * static_cast<std::uint64_t>(i)),
        telemetry::nic_track(i));
    connect(nic->port(), switch_->port(host_port(i)),
            LinkParams{profile.link_gbps, spec_.link_propagation});
    // Routes: every GID of a host resolves to its switch port.
    for (const auto& ip : host.ip_list) switch_->add_route(ip, host_port(i));
    nics_.push_back(std::move(nic));
  }

  // Traffic dumper pool: links sized like the fastest host link (§3.4 —
  // pooling is what makes slower dumpers viable; benches vary this).
  std::vector<MirrorEngine::Target> targets;
  TrafficDumper::Options dopt = spec_.dumper_options;
  if (!spec_.trim_mirrors) dopt.trim_bytes = 1 << 20;
  for (int i = 0; i < spec_.num_dumpers; ++i) {
    auto dumper = std::make_unique<TrafficDumper>(&sim_, dopt);
    connect(dumper->port(), switch_->port(dumper_port(i)),
            LinkParams{fastest_gbps, spec_.link_propagation});
    targets.push_back(MirrorEngine::Target{dumper_port(i), 1});
    dumpers_.push_back(std::move(dumper));
  }
  switch_->set_mirror_targets(std::move(targets));

  if (spec_.enable_telemetry) {
    switch_->attach_telemetry(&telemetry_);
    for (auto& nic : nics_) nic->attach_telemetry(&telemetry_);
  }
}

}  // namespace lumina
