#include "injector/switch.h"

#include <algorithm>
#include <optional>

#include "packet/packet_arena.h"
#include "util/logging.h"

namespace lumina {

EventInjectorSwitch::EventInjectorSwitch(Simulator* sim, int num_ports,
                                         Options options)
    : sim_(sim), options_(options), mirror_(kRngSeed) {
  ports_.reserve(static_cast<std::size_t>(num_ports));
  for (int i = 0; i < num_ports; ++i) {
    ports_.push_back(std::make_unique<Port>(sim, this, i));
  }
}

void EventInjectorSwitch::add_route(Ipv4Address dst, int port_index) {
  routes_[dst] = port_index;
}

void EventInjectorSwitch::set_mirror_targets(std::vector<int> port_indices) {
  mirror_.set_targets(std::move(port_indices));
}

void EventInjectorSwitch::register_flow(const FlowKey& flow,
                                        std::uint32_t ipsn) {
  iter_tracker_.register_flow(flow, ipsn);
}

void EventInjectorSwitch::install_rule(const EventRule& rule) {
  table_.install(rule);
}

void EventInjectorSwitch::install_relative_rule(const RelativeEventRule& rule) {
  relative_rules_.push_back(rule);
}

void EventInjectorSwitch::attach_telemetry(telemetry::Telemetry* t) {
  if (t == nullptr || t->metrics == nullptr) {
    trace_ = nullptr;
    m_table_match_ = nullptr;
    m_table_miss_ = nullptr;
    m_added_latency_ = nullptr;
    return;
  }
  trace_ = t->trace;
  m_table_match_ = &t->metrics->counter("injector.table_match");
  m_table_miss_ = &t->metrics->counter("injector.table_miss");
  // Added latency of the event-injection stages over a plain L2 program
  // (event stage cost + any injected delay) — the Fig. 7 decomposition.
  m_added_latency_ = &t->metrics->histogram(
      "injector.added_latency_ns",
      telemetry::BucketBounds::exponential(16, 2.0, 16));
}

void EventInjectorSwitch::handle_packet(int in_port, Packet pkt) {
  // The forward and reorder paths move the frame onward (the guard then
  // has nothing to do); a non-RoCE frame or an enforced drop leaves its
  // buffer behind.
  ScopedPacketReclaim reclaim(pkt);
  const Tick now = sim_->now();

  // Classify: the frame's one decode. The view describes the bytes as
  // they arrived; a later step that rewrites a header field reads that
  // field from the bytes, not from the view.
  const std::optional<RoceView> view = parse_roce(pkt);
  if (!view) {
    // Not RoCE-shaped: nothing to route by, so the frame is dropped. The
    // warning still fires from an event after the base pipeline latency,
    // as a forward would, so later event ids do not depend on where the
    // switch decides the drop.
    sim_->schedule_after(kL2PipelineLatency, [] {
      LUMINA_LOG(kWarn) << "switch: dropping unroutable non-IP packet";
    });
    return;
  }
  ++counters_.roce_rx;
  Tick base_latency = kL2PipelineLatency;
  const bool is_data = is_data_opcode(view->bth.opcode);
  const FlowKey flow{view->src_ip, view->dst_ip, view->bth.dest_qpn};

  // Event match. ITER tracking and the table apply to data-carrying
  // packets only (ACK/NACK/CNP are not injectable, §3.3 fn 2).
  EventMatch match;
  if (options_.enable_event_injection) {
    base_latency += kEventStageLatency;
    if (is_data) match = match_event(in_port, flow, view->bth.psn);
  }

  // Transform, before mirroring so the mirrored copy reflects what was
  // (or would have been) forwarded.
  switch (match.event) {
    case EventType::kEcn:
      set_ecn_ce(pkt);
      break;
    case EventType::kCorrupt:
      corrupt_payload_bit(pkt);
      break;
    default:
      break;
  }
  // MigReq := 1 on the packet a rewrite-migreq event matched, and on every
  // data packet under the §6.2.3 fix. Neither case above writes the BTH
  // flags byte, so the view still shows the bit.
  const bool rewrite = match.event == EventType::kRewriteMigReq ||
                       (options_.rewrite_mig_req && is_data);
  if (rewrite && !view->bth.mig_req) set_mig_req(pkt, true);

  const bool mirroring = options_.enable_mirroring && mirror_.has_targets();
  const bool enforced_drop =
      (match.event == EventType::kDrop || match.burst_dropped) &&
      options_.enforce_drops;
  // A mirrored frame that departs with its mirror copy (same tick, and
  // nothing scheduled between the two) leaves in one fused event.
  const bool fused = mirroring && match.delay == 0 && !enforced_drop &&
                     match.event != EventType::kReorder &&
                     match.event != EventType::kDuplicate;

  // Ingress mirror tap: always before anything can drop (§3.4). A packet
  // lost to an armed burst channel (no table match of its own) is
  // mirrored with kBurstLoss so the trace explains why it vanished.
  MirrorEngine::Mirrored mirrored{};
  if (mirroring) {
    const EventType mirror_event =
        match.burst_dropped && match.event == EventType::kNone
            ? EventType::kBurstLoss
            : match.event;
    mirrored = mirror_.mirror(pkt, mirror_event, now);
    ++counters_.mirrored;
    // The mirror slot records ingress order, but a delayed packet reaches
    // the receiver `delay` later — possibly behind its successors.
    // Remember the release time by mirror seq so the trace can be
    // replayed in receiver order (delay_releases() doc).
    if (match.event == EventType::kDelay && match.delay > 0) {
      delay_releases_[mirror_.mirrored_count() - 1] = now + match.delay;
      ++fault_stats_.delays_applied;
    }
    if (!fused) {
      sim_->schedule_after(base_latency,
                           [this, m = std::move(mirrored)]() mutable {
                             port(m.port_index).send(std::move(m.clone));
                           });
    }
  }

  // Egress: drop enforcement, reorder holds, duplication and the L3
  // forward.
  if (options_.enable_event_injection) {
    telemetry::observe(m_added_latency_, kEventStageLatency + match.delay);
  }

  if (enforced_drop) {
    ++counters_.dropped_by_event;
    if (match.burst_dropped) ++fault_stats_.burst_loss_dropped;
    telemetry::trace_instant(trace_, "injector", "drop_enforced", now,
                             telemetry::kTrackInjector, view->bth.psn);
    return;
  }

  // §7 extension: hold the packet so it leaves AFTER its flow's next data
  // packet (adjacent-pair reordering).
  if (match.event == EventType::kReorder) {
    ReorderSlot slot;
    slot.pkt = std::move(pkt);
    // Safety valve: flush if no successor shows up (tail packet).
    slot.flush_event = sim_->schedule_after(
        kReorderFlushTimeout, [this, flow] { flush_reorder(flow); });
    reorder_slots_[flow] = std::move(slot);
    return;
  }

  ++counters_.roce_tx;
  const Tick depart = base_latency + match.delay;
  // Each departure carries the routing inputs decoded above (a duplicated
  // or held frame is data, like this one).
  const auto send_at = [this, dst = flow.dst_ip, is_data](Tick delay,
                                                          Packet frame) {
    sim_->schedule_after(delay,
                         [this, p = std::move(frame), dst, is_data]() mutable {
                           forward(std::move(p), dst, is_data);
                         });
  };
  if (fused) {
    fused_departures_.push_back({std::move(mirrored.clone),
                                 mirrored.port_index, std::move(pkt),
                                 flow.dst_ip, is_data});
    sim_->schedule_after(base_latency, [this] { depart_fused(); });
  } else {
    // Duplication: a byte-identical clone chases the original one tick
    // behind — the receiver sees the same PSN twice back to back.
    if (match.event == EventType::kDuplicate) {
      Packet clone = pkt.clone_arena();
      ++counters_.roce_tx;
      ++fault_stats_.duplicates_emitted;
      send_at(depart + 1, std::move(clone));
    }
    send_at(depart, std::move(pkt));
  }
  // A held (reordered) predecessor departs right behind this packet.
  if (is_data) {
    if (const auto it = reorder_slots_.find(flow);
        it != reorder_slots_.end()) {
      sim_->cancel(it->second.flush_event);
      Packet held = std::move(it->second.pkt);
      reorder_slots_.erase(it);
      ++counters_.roce_tx;
      send_at(depart + 1, std::move(held));
    }
  }
}

EventInjectorSwitch::EventMatch EventInjectorSwitch::match_event(
    int in_port, const FlowKey& flow, std::uint32_t psn) {
  // Stateful-discovery ablation: the first packet of a new flow binds
  // pending relative rules, taking its PSN as the IPSN.
  if (!relative_rules_.empty() && !discovery_index_.contains(flow)) {
    const int index = ++discovered_;
    discovery_index_[flow] = index;
    for (const auto& rel : relative_rules_) {
      if (rel.conn_index != index) continue;
      EventRule rule;
      rule.flow = flow;
      rule.psn = psn_add(psn, static_cast<std::int64_t>(rel.psn) - 1);
      rule.iter = rel.iter;
      rule.action = rel.action;
      rule.delay = rel.delay;
      rule.fault = rel.fault;
      table_.install(rule);
    }
  }
  EventMatch match;
  const std::uint32_t iter = iter_tracker_.observe(flow, psn);
  if (const auto action = table_.match(flow, psn, iter)) {
    match.event = action->type;
    match.delay = action->delay;
    ++counters_.events_applied;
    telemetry::inc(m_table_match_);
    telemetry::trace_instant(trace_, "injector", "event_applied", sim_->now(),
                             telemetry::kTrackInjector, psn);
    // Stateful fault activations: the matched packet arms the fault; its
    // ongoing effects then compose with any further rules.
    switch (match.event) {
      case EventType::kBurstLoss:
        start_burst_channel(flow, action->fault);
        break;
      case EventType::kPauseStorm:
        start_pause_storm(in_port, action->fault);
        break;
      case EventType::kLinkFlap:
        apply_link_flap(flow.dst_ip, action->fault);
        break;
      default:
        break;
    }
  } else {
    telemetry::inc(m_table_miss_);
  }
  // An armed Gilbert–Elliott channel judges every data packet of its flow
  // — including the one that just armed it (the channel starts in the Bad
  // state, so the trigger is the burst's first casualty).
  match.burst_dropped = burst_channel_drops(flow);
  return match;
}

void EventInjectorSwitch::start_burst_channel(const FlowKey& flow,
                                              const FaultParams& fault) {
  ++fault_stats_.burst_channels_started;
  // Seed derived from the switch seed and the flow identity, so channels
  // are independent per flow yet byte-deterministic for a fixed run seed.
  const std::uint64_t seed =
      kRngSeed ^
      (static_cast<std::uint64_t>(FlowKeyHash{}(flow)) * 0x100000001b3ULL);
  BurstChannelSlot slot{
      GilbertElliottChannel(fault.ge_p, fault.ge_r, seed, /*start_bad=*/true),
      fault.duration > 0 ? sim_->now() + fault.duration : 0};
  burst_channels_.insert_or_assign(flow, std::move(slot));
}

bool EventInjectorSwitch::burst_channel_drops(const FlowKey& flow) {
  if (burst_channels_.empty()) return false;
  const auto it = burst_channels_.find(flow);
  if (it == burst_channels_.end()) return false;
  if (it->second.expires != 0 && sim_->now() >= it->second.expires) {
    burst_channels_.erase(it);
    return false;
  }
  return it->second.channel.drop_next();
}

void EventInjectorSwitch::start_pause_storm(int in_port,
                                            const FaultParams& fault) {
  ++fault_stats_.pause_storms;
  const Tick refresh = kPauseRefreshInterval;
  const Tick duration = fault.duration > 0 ? fault.duration : refresh;
  const double gbps = port(in_port).link().gbps;
  // Each frame names ~2 refresh intervals of pause so coverage overlaps;
  // one quantum is 512 bit-times at the victim's link rate.
  const std::int64_t want_quanta =
      2 * refresh * static_cast<std::int64_t>(gbps) / kPfcBitTimesPerQuantum;
  const auto quanta = static_cast<std::uint16_t>(
      std::clamp<std::int64_t>(want_quanta, 1, 0xFFFF));
  const int priority = fault.priority;
  for (Tick at = 0; at < duration; at += refresh) {
    sim_->schedule_after(at, [this, in_port, priority, quanta] {
      send_pause_frame(in_port, priority, quanta);
    });
  }
  // Storm over: an explicit resume (0 quanta) reopens the priority.
  sim_->schedule_after(duration, [this, in_port, priority] {
    send_pause_frame(in_port, priority, 0);
  });
}

void EventInjectorSwitch::send_pause_frame(int port_index, int priority,
                                           std::uint16_t quanta) {
  PfcFrame frame;
  const int pri = std::clamp(priority, 0, 7);
  frame.class_enable = static_cast<std::uint16_t>(1u << pri);
  frame.quanta[static_cast<std::size_t>(pri)] = quanta;
  // Locally administered source MAC naming the emitting switch port.
  Packet pkt = build_pfc_frame(
      MacAddress::from_u48(0x02AA00000000ULL |
                           static_cast<std::uint64_t>(port_index)),
      frame);
  ++fault_stats_.pause_frames_sent;
  port(port_index).send(std::move(pkt));
}

void EventInjectorSwitch::apply_link_flap(Ipv4Address dst_ip,
                                          const FaultParams& fault) {
  const auto it = routes_.find(dst_ip);
  if (it == routes_.end()) return;
  ++fault_stats_.link_flaps;
  Port& egress = port(it->second);
  fault_stats_.flap_queued_dropped +=
      egress.set_link_down(fault.flap_drops_queued);
  const Tick duration = fault.duration > 0 ? fault.duration : kMicrosecond;
  const int port_index = it->second;
  sim_->schedule_after(duration,
                       [this, port_index] { port(port_index).set_link_up(); });
}

void EventInjectorSwitch::depart_fused() {
  FusedDeparture departure = fused_departures_.pop_front();
  port(departure.mirror_port).send(std::move(departure.mirror_copy));
  forward(std::move(departure.frame), departure.dst_ip, departure.is_data);
}

void EventInjectorSwitch::flush_reorder(const FlowKey& flow) {
  const auto it = reorder_slots_.find(flow);
  if (it == reorder_slots_.end()) return;
  Packet held = std::move(it->second.pkt);
  reorder_slots_.erase(it);
  ++counters_.roce_tx;
  forward(std::move(held), flow.dst_ip, /*is_data=*/true);
}

void EventInjectorSwitch::forward(Packet pkt, Ipv4Address dst_ip,
                                  bool is_data) {
  const auto it = routes_.find(dst_ip);
  if (it == routes_.end()) {
    LUMINA_LOG(kWarn) << "switch: no route for " << dst_ip.to_string();
    return;
  }
  Port& egress = port(it->second);
  // Congestion-driven ECN (extension): step marking at the egress queue.
  if (options_.ecn_marking_threshold_bytes > 0 && is_data &&
      egress.queued_bytes() > options_.ecn_marking_threshold_bytes) {
    set_ecn_ce(pkt);
    ++counters_.ecn_marked_by_queue;
  }
  egress.send(std::move(pkt));
}

}  // namespace lumina
