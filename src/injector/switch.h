// The event-injector switch (§3.3–3.4, Fig. 6 pipeline layout).
//
// Ingress (handle_packet, one frame per call): RoCE classification ->
// ITER tracking and event match -> transform -> ingress mirror (before
// any drop, with metadata embedding) -> drop, reorder hold or L3 forward.
// Egress: per-port FIFO + counters (provided by net::Port).
//
// A mirrored frame that leaves undelayed, unheld and unduplicated departs
// in one event: the mirror copy's send, then the forward. As two events
// they would sit at (t, N) and (t, N + 1) with nothing between them, so
// the fused event keeps every other event's relative order. The pair
// waits in a switch-side FIFO; every fused departure waits the same base
// latency, so they fire in FIFO order and the event carries only `this`.
//
// The model charges a fixed pipeline latency per forwarded packet,
// decomposed into a base L2-forwarding cost plus an extra cost for the
// event-injection stages — the decomposition Fig. 7 measures via the
// Lumina / Lumina-ne / l2-forward variants.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "injector/event_table.h"
#include "injector/fault_models.h"
#include "injector/mirror.h"
#include "net/node.h"
#include "net/packet_fifo.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace lumina {

/// Per-port RoCE traffic counters kept by the data plane for the §3.5
/// integrity check, alongside the generic net-level PortCounters.
struct SwitchRoceCounters {
  std::uint64_t roce_rx = 0;        ///< RoCE packets received (ingress)
  std::uint64_t roce_tx = 0;        ///< RoCE packets forwarded (egress)
  std::uint64_t mirrored = 0;       ///< mirror clones emitted
  std::uint64_t events_applied = 0; ///< non-none events applied
  std::uint64_t dropped_by_event = 0;
  std::uint64_t ecn_marked_by_queue = 0;  ///< congestion-driven CE marks
};

/// Statistics of the stateful fault models (burst loss, duplication, pause
/// storms, link flaps). Kept apart from SwitchRoceCounters so the artifact
/// files keep their exact shape; the orchestrator scrapes these into
/// telemetry only when nonzero, so runs that never configure the new event
/// types keep a byte-identical report.json metric set.
struct SwitchFaultStats {
  std::uint64_t burst_channels_started = 0;
  std::uint64_t burst_loss_dropped = 0;
  std::uint64_t duplicates_emitted = 0;
  std::uint64_t pause_storms = 0;
  std::uint64_t pause_frames_sent = 0;
  std::uint64_t link_flaps = 0;
  std::uint64_t flap_queued_dropped = 0;
  std::uint64_t delays_applied = 0;
};

class EventInjectorSwitch : public Node {
 public:
  /// Base store-and-forward pipeline latency of a plain L2 program.
  static constexpr Tick kL2PipelineLatency = 250;
  /// Extra latency of the event-injection match-action stages.
  static constexpr Tick kEventStageLatency = 90;
  /// §7 extension: how long a reorder-held packet waits for a successor
  /// before being flushed unreordered (tail-packet safety valve).
  static constexpr Tick kReorderFlushTimeout = 50 * kMicrosecond;
  /// kPauseStorm: interval at which the storm refreshes pause frames.
  /// Each frame names ~2 intervals of pause quanta so coverage overlaps
  /// even if a refresh frame queues behind reverse-direction traffic.
  static constexpr Tick kPauseRefreshInterval = 10 * kMicrosecond;
  /// Seeds the mirror engine and, mixed with the flow, every burst-loss
  /// channel.
  static constexpr std::uint64_t kRngSeed = 0x1u;

  struct Options {
    bool enable_event_injection = true;
    bool enable_mirroring = true;
    /// When false, "drop" rules are matched and mirrored but not enforced
    /// (the Fig. 7 overhead measurement keeps tables but disables drops).
    bool enforce_drops = true;
    /// §6.2.3 fix: rewrite MigReq to 1 on every forwarded RoCE packet.
    bool rewrite_mig_req = false;
    /// Extension: RED-style step ECN marking — data packets enqueued onto
    /// an egress port whose FIFO exceeds this many bytes get CE. 0
    /// disables (the stock tool only marks via injected events). Enables
    /// genuine closed-loop DCQCN experiments with mixed link speeds.
    std::size_t ecn_marking_threshold_bytes = 0;
  };

  EventInjectorSwitch(Simulator* sim, int num_ports, Options options);

  // -- wiring --------------------------------------------------------------
  Port& port(int index) { return *ports_[static_cast<std::size_t>(index)]; }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  /// Installs an L3 route: packets to `dst` leave through `port_index`.
  void add_route(Ipv4Address dst, int port_index);

  /// Declares the dumper pool: the egress ports mirror copies leave
  /// through, in round robin.
  void set_mirror_targets(std::vector<int> port_indices);

  // -- control plane (populated by the orchestrator) -----------------------
  void register_flow(const FlowKey& flow, std::uint32_t ipsn);
  void install_rule(const EventRule& rule);

  // -- stateful-discovery ablation (§3.3 "one straightforward solution") ----
  // Instead of the stock stateless design (runtime metadata pushed through
  // the control plane), the data plane itself detects new QPs: the k-th
  // flow whose first data packet appears is connection k, its first PSN is
  // taken as the IPSN, and pending relative rules materialize on the spot.
  // The ablation bench shows why the paper rejected this: with concurrent
  // QPs the discovery order races, so intents can bind to the wrong
  // connection.
  struct RelativeEventRule {
    int conn_index = 1;      ///< 1-based order of flow discovery.
    std::uint32_t psn = 1;   ///< 1-based packet index within the flow.
    std::uint32_t iter = 1;
    EventType action = EventType::kDrop;
    Tick delay = 0;
    FaultParams fault;
  };
  void install_relative_rule(const RelativeEventRule& rule);
  int discovered_flows() const { return discovered_; }

  /// Registers the run's telemetry context and resolves metric handles
  /// (docs/telemetry.md: injector.*). Pass nullptr to detach.
  void attach_telemetry(telemetry::Telemetry* telemetry);

  const SwitchRoceCounters& roce_counters() const { return counters_; }
  const SwitchFaultStats& fault_stats() const { return fault_stats_; }
  const EventTable& event_table() const { return table_; }
  MirrorEngine& mirror_engine() { return mirror_; }

  /// Active Gilbert–Elliott channels (one per flow with a live burst).
  std::size_t active_burst_channels() const { return burst_channels_.size(); }

  /// Release times of packets held by a `delay` event, keyed by mirror
  /// sequence number: ingress timestamp + injected hold (the constant
  /// pipeline latency cancels out of cross-packet comparisons). The
  /// orchestrator joins these onto the reconstructed trace so analyzers
  /// can replay delayed packets at the instant the receiver actually saw
  /// them (ROADMAP: the GBN FSM misses delay-induced episodes otherwise).
  const std::unordered_map<std::uint64_t, Tick>& delay_releases() const {
    return delay_releases_;
  }

  // -- data plane ----------------------------------------------------------
  // The event kernel delivers one packet per call; handle_packet runs the
  // ingress steps listed at the top of this file on it, in order, and
  // returns once it has dropped, held or forwarded the frame.
  void handle_packet(int in_port, Packet pkt) override;

 private:
  /// What the event-match step decided for one data frame.
  struct EventMatch {
    EventType event = EventType::kNone;
    Tick delay = 0;              ///< Injected hold from a matched delay event.
    bool burst_dropped = false;  ///< Gilbert–Elliott channel verdict.
  };

  /// Event match for a data frame: relative-rule discovery, ITER tracking,
  /// table match, fault activations and the burst-channel verdict.
  EventMatch match_event(int in_port, const FlowKey& flow, std::uint32_t psn);

  /// Sends a frame out of the port routed to `dst_ip`; `is_data` gates the
  /// congestion ECN mark. The caller passes what handle_packet decoded, so
  /// forwarding never parses the frame again.
  void forward(Packet pkt, Ipv4Address dst_ip, bool is_data);
  void flush_reorder(const FlowKey& flow);

  /// A mirrored frame and its mirror copy, waiting out the base pipeline
  /// latency together.
  struct FusedDeparture {
    Packet mirror_copy;
    int mirror_port = 0;
    Packet frame;
    Ipv4Address dst_ip;
    bool is_data = false;
  };
  /// The fused departure event: sends the oldest parked mirror copy on its
  /// port, then forwards its frame.
  void depart_fused();

  // Stateful fault models (docs/fuzzing.md).
  void start_burst_channel(const FlowKey& flow, const FaultParams& fault);
  bool burst_channel_drops(const FlowKey& flow);
  void start_pause_storm(int in_port, const FaultParams& fault);
  void send_pause_frame(int port_index, int priority, std::uint16_t quanta);
  void apply_link_flap(Ipv4Address dst_ip, const FaultParams& fault);

  struct ReorderSlot {
    Packet pkt;
    std::uint64_t flush_event = 0;
  };

  struct BurstChannelSlot {
    GilbertElliottChannel channel;
    Tick expires = 0;  ///< 0 = lives for the rest of the run.
  };

  Simulator* sim_;
  Options options_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::unordered_map<Ipv4Address, int> routes_;
  EventTable table_;
  IterTracker iter_tracker_;
  MirrorEngine mirror_;
  SwitchRoceCounters counters_;

  // Hot-path telemetry handles (null when no telemetry is attached).
  telemetry::TraceSink* trace_ = nullptr;
  telemetry::Counter* m_table_match_ = nullptr;
  telemetry::Counter* m_table_miss_ = nullptr;
  telemetry::Histogram* m_added_latency_ = nullptr;
  std::unordered_map<FlowKey, ReorderSlot, FlowKeyHash> reorder_slots_;
  std::unordered_map<FlowKey, BurstChannelSlot, FlowKeyHash> burst_channels_;
  SwitchFaultStats fault_stats_;
  std::unordered_map<std::uint64_t, Tick> delay_releases_;
  RingFifo<FusedDeparture> fused_departures_;

  // Stateful-discovery ablation state.
  std::vector<RelativeEventRule> relative_rules_;
  std::unordered_map<FlowKey, int, FlowKeyHash> discovery_index_;
  int discovered_ = 0;
};

}  // namespace lumina
