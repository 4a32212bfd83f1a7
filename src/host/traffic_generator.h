// Traffic generator (§3.2): hosts driving the RNICs under test over one or
// more RC queue pairs.
//
// The generator mirrors the paper's C tool: it creates QPs and memory
// regions, exchanges runtime metadata (QPN, IPSN, GID, rkey) out of band,
// exposes that metadata so the orchestrator can program the event injector
// (§3.3), posts Send/Write/Read work requests with configurable message
// count, size, tx-depth and optional cross-QP barrier synchronization, and
// reports message completion times and goodput.
//
// Connections are (src_host, dst_host) pairs over an arbitrary host set
// (docs/topology.md): the classic requester/responder pair is the default
// spec, k->1 incast is k specs sharing a dst_host. Within one connection
// the src side plays the requester role and the dst side the responder.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "config/test_config.h"
#include "host/metrics.h"
#include "rnic/rnic.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "util/random.h"

namespace lumina {

/// Metadata for one QP connection, as exchanged over the out-of-band
/// control channel and shared with the event injector. `requester` lives
/// on hosts[src_host], `responder` on hosts[dst_host].
struct ConnectionMetadata {
  QpEndpointInfo requester;
  QpEndpointInfo responder;
  int src_host = 0;
  int dst_host = 1;
};

class TrafficGenerator {
 public:
  /// One Rnic + HostConfig per host (same indexing), plus the connection
  /// specs to realize (TestConfig::normalize() fills an empty list).
  TrafficGenerator(Simulator* sim, std::vector<Rnic*> nics,
                   std::vector<HostConfig> host_cfgs,
                   std::vector<ConnectionSpec> connections,
                   TrafficConfig traffic, EtsConfig ets,
                   std::uint64_t seed = 0xBEEF);

  /// Creates and connects QPs, exchanges metadata. Must run before start().
  void setup();

  /// Begins posting work requests (at current simulated time).
  void start();

  bool finished() const { return flows_remaining_ == 0; }

  const std::vector<ConnectionMetadata>& connections() const {
    return connections_;
  }
  const TrafficConfig& traffic() const { return traffic_; }

  const FlowMetrics& metrics(int connection) const {
    return metrics_[static_cast<std::size_t>(connection)];
  }
  int num_connections() const {
    return static_cast<int>(conn_specs_.size());
  }
  int num_hosts() const { return static_cast<int>(nics_.size()); }

  /// Mean of per-connection average MCTs over `connections` (all when
  /// empty), in microseconds.
  double avg_mct_us(const std::vector<int>& conns = {}) const;

  /// Registers the run's telemetry context (docs/telemetry.md: host.*).
  void attach_telemetry(telemetry::Telemetry* telemetry);

  /// The responder QP of connection i, on nics[conn_specs[i].dst_host].
  QueuePair* responder_qp(int connection) {
    return resp_qps_[static_cast<std::size_t>(connection)];
  }

 private:
  void post_next(int connection);
  void on_completion(int connection, const WorkCompletion& wc);
  void maybe_advance_barrier();
  void post_burst_all();

  Simulator* sim_;
  std::vector<Rnic*> nics_;
  std::vector<HostConfig> host_cfgs_;
  std::vector<ConnectionSpec> conn_specs_;
  TrafficConfig traffic_;
  EtsConfig ets_;
  Rng rng_;

  std::vector<QueuePair*> req_qps_;
  std::vector<QueuePair*> resp_qps_;
  std::vector<ConnectionMetadata> connections_;
  std::vector<FlowMetrics> metrics_;
  std::vector<int> posted_;     // messages posted per connection
  std::vector<int> completed_;  // messages completed per connection
  std::vector<Tick> post_time_; // post time of in-flight msgs, by wr_id slot
  int flows_remaining_ = 0;
  int barrier_round_ = 0;
  bool started_ = false;

  // Hot-path telemetry handles (null when no telemetry is attached).
  telemetry::TraceSink* trace_ = nullptr;
  telemetry::Counter* m_msgs_completed_ = nullptr;
  telemetry::Counter* m_msgs_failed_ = nullptr;
  telemetry::Histogram* m_msg_completion_ = nullptr;
};

}  // namespace lumina
