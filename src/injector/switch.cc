#include "injector/switch.h"

#include <algorithm>

#include "packet/packet_arena.h"
#include "util/logging.h"

namespace lumina {

// The injector's rx pipeline: five stages that handle_packet walks each
// delivered frame through, in order. All injector state (tables, trackers,
// fault channels, mirror engine) stays on the switch.
struct SwitchPipeline {
  using FrameMeta = pipeline::FrameMeta;
  using StageContract = pipeline::StageContract;

  /// Parse + RoCE classification: the chain's one decode. Non-RoCE frames
  /// have nothing to route by and leave the chain; RoCE frames get their
  /// view, base latency and data/control discrimination recorded.
  class Classify : public pipeline::Stage {
   public:
    explicit Classify(EventInjectorSwitch& sw) : sw_(sw) {}
    const char* name() const override { return "classify"; }
    StageContract contract() const override { return {.provides_view = true}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      EventInjectorSwitch& sw = sw_;
      meta.view = parse_roce(pkt);
      if (!meta.view) {
        // Not RoCE-shaped: nothing to route by, so the frame is dropped.
        // The warning still fires from an event after the base pipeline
        // latency, as a forward would, so later event ids do not depend
        // on where the switch decides the drop.
        sw.sim_->schedule_after(sw.options_.l2_pipeline_latency, [] {
          LUMINA_LOG(kWarn) << "switch: dropping unroutable non-IP packet";
        });
        return false;
      }
      ++sw.counters_.roce_rx;
      meta.base_latency = sw.options_.l2_pipeline_latency;
      meta.is_data = is_data_opcode(meta.view->bth.opcode);
      return true;
    }

   private:
    EventInjectorSwitch& sw_;
  };

  /// Event-table match/action plus the stateful fault models: relative-
  /// rule discovery, ITER tracking, table match, fault activations, and
  /// the Gilbert–Elliott burst-channel verdict. Writes the matched event,
  /// its delay, and the burst verdict into the frame metadata.
  class EventMatch : public pipeline::Stage {
   public:
    explicit EventMatch(EventInjectorSwitch& sw) : sw_(sw) {}
    const char* name() const override { return "event-match"; }
    StageContract contract() const override { return {.needs_view = true}; }
    bool process(Packet&, FrameMeta& meta) override {
      EventInjectorSwitch& sw = sw_;
      if (!sw.options_.enable_event_injection) return true;
      meta.base_latency += sw.options_.event_stage_latency;
      // ITER tracking + event matching apply to data-carrying packets
      // only (ACK/NACK/CNP are not injectable, §3.3 fn 2).
      if (!meta.is_data) return true;
      const auto& view = meta.view;
      const FlowKey flow{view->src_ip, view->dst_ip, view->bth.dest_qpn};
      // Stateful-discovery ablation: the first packet of a new flow
      // binds pending relative rules, taking its PSN as the IPSN.
      if (!sw.relative_rules_.empty() &&
          !sw.discovery_index_.contains(flow)) {
        const int index = ++sw.discovered_;
        sw.discovery_index_[flow] = index;
        for (const auto& rel : sw.relative_rules_) {
          if (rel.conn_index != index) continue;
          EventRule rule;
          rule.flow = flow;
          rule.psn = psn_add(view->bth.psn,
                             static_cast<std::int64_t>(rel.psn) - 1);
          rule.iter = rel.iter;
          rule.action = rel.action;
          rule.delay = rel.delay;
          rule.fault = rel.fault;
          sw.table_.install(rule);
        }
      }
      const std::uint32_t iter = sw.iter_tracker_.observe(flow, view->bth.psn);
      if (const auto action = sw.table_.match(flow, view->bth.psn, iter)) {
        meta.event = action->type;
        meta.event_delay = action->delay;
        ++sw.counters_.events_applied;
        telemetry::inc(sw.m_table_match_);
        telemetry::trace_instant(sw.trace_, "injector", "event_applied",
                                 meta.ingress_ts, telemetry::kTrackInjector,
                                 view->bth.psn);
        // Stateful fault activations: the matched packet arms the fault;
        // its ongoing effects then compose with any further rules.
        switch (meta.event) {
          case EventType::kBurstLoss:
            sw.start_burst_channel(flow, action->fault);
            break;
          case EventType::kPauseStorm:
            sw.start_pause_storm(meta.in_port, action->fault);
            break;
          case EventType::kLinkFlap:
            sw.apply_link_flap(view->dst_ip, action->fault);
            break;
          default:
            break;
        }
      } else {
        telemetry::inc(sw.m_table_miss_);
      }
      // An armed Gilbert–Elliott channel judges every data packet of its
      // flow — including the one that just armed it (the channel starts
      // in the Bad state, so the trigger is the burst's first casualty).
      meta.burst_dropped = sw.burst_channel_drops(flow);
      return true;
    }

   private:
    EventInjectorSwitch& sw_;
  };

  /// Packet transformations, applied before mirroring so the mirrored
  /// copy reflects what was (or would have been) forwarded.
  class Transform : public pipeline::Stage {
   public:
    explicit Transform(EventInjectorSwitch& sw) : sw_(sw) {}
    const char* name() const override { return "transform"; }
    StageContract contract() const override { return {.needs_view = true}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      EventInjectorSwitch& sw = sw_;
      switch (meta.event) {
        case EventType::kEcn:
          set_ecn_ce(pkt);
          break;
        case EventType::kCorrupt:
          corrupt_payload_bit(pkt);
          break;
        default:
          break;
      }
      // MigReq := 1 on the packet a rewrite-migreq event matched, and on
      // every data packet under the §6.2.3 fix. Neither case above writes
      // the BTH flags byte, so the classify view still shows the bit.
      const bool rewrite = meta.event == EventType::kRewriteMigReq ||
                           (sw.options_.rewrite_mig_req && meta.is_data);
      if (rewrite && !meta.view->bth.mig_req) set_mig_req(pkt, true);
      return true;
    }

   private:
    EventInjectorSwitch& sw_;
  };

  /// Ingress mirror tap: always before anything can drop (§3.4). A packet
  /// lost to an armed burst channel (no table match of its own) is
  /// mirrored with kBurstLoss so the trace explains why it vanished.
  class MirrorTap : public pipeline::Stage {
   public:
    explicit MirrorTap(EventInjectorSwitch& sw) : sw_(sw) {}
    const char* name() const override { return "mirror-tap"; }
    StageContract contract() const override { return {.needs_view = true}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      EventInjectorSwitch& sw = sw_;
      if (!sw.options_.enable_mirroring || !sw.mirror_.has_targets()) {
        return true;
      }
      const EventType mirror_event =
          meta.burst_dropped && meta.event == EventType::kNone
              ? EventType::kBurstLoss
              : meta.event;
      auto mirrored = sw.mirror_.mirror(pkt, mirror_event, meta.ingress_ts);
      ++sw.counters_.mirrored;
      // The mirror slot records ingress order, but a delayed packet
      // reaches the receiver event_delay later — possibly behind its
      // successors. Remember the release time by mirror seq so the trace
      // can be replayed in receiver order (delay_releases() doc).
      if (meta.event == EventType::kDelay && meta.event_delay > 0) {
        sw.delay_releases_[sw.mirror_.mirrored_count() - 1] =
            meta.ingress_ts + meta.event_delay;
        ++sw.fault_stats_.delays_applied;
      }
      sw.sim_->schedule_after(meta.base_latency,
                              [s = &sw, m = std::move(mirrored)]() mutable {
                                s->port(m.port_index).send(std::move(m.clone));
                              });
      return true;
    }

   private:
    EventInjectorSwitch& sw_;
  };

  /// Egress disposition: drop enforcement, reorder holds, duplication,
  /// and the L3 forward — every path retires the frame.
  class Emit : public pipeline::Stage {
   public:
    explicit Emit(EventInjectorSwitch& sw) : sw_(sw) {}
    const char* name() const override { return "emit"; }
    StageContract contract() const override { return {.needs_view = true}; }
    bool process(Packet& pkt, FrameMeta& meta) override {
      EventInjectorSwitch& sw = sw_;
      const auto& view = meta.view;
      if (sw.options_.enable_event_injection) {
        telemetry::observe(sw.m_added_latency_,
                           sw.options_.event_stage_latency + meta.event_delay);
      }

      if ((meta.event == EventType::kDrop || meta.burst_dropped) &&
          sw.options_.enforce_drops) {
        ++sw.counters_.dropped_by_event;
        if (meta.burst_dropped) ++sw.fault_stats_.burst_loss_dropped;
        telemetry::trace_instant(sw.trace_, "injector", "drop_enforced",
                                 meta.ingress_ts, telemetry::kTrackInjector,
                                 view->bth.psn);
        return false;
      }

      // §7 extension: hold the packet so it leaves AFTER its flow's next
      // data packet (adjacent-pair reordering).
      const FlowKey flow{view->src_ip, view->dst_ip, view->bth.dest_qpn};
      if (meta.event == EventType::kReorder && meta.is_data) {
        EventInjectorSwitch::ReorderSlot slot;
        slot.pkt = std::move(pkt);
        // Safety valve: flush if no successor shows up (tail packet).
        slot.flush_event = sw.sim_->schedule_after(
            sw.options_.reorder_flush_timeout,
            [s = &sw, flow] { s->flush_reorder(flow); });
        sw.reorder_slots_[flow] = std::move(slot);
        return false;
      }

      ++sw.counters_.roce_tx;
      const Tick depart = meta.base_latency + meta.event_delay;
      // Each departure carries the routing inputs the classify stage
      // decoded (a duplicated or held frame is data, like this one).
      const auto send_at = [&sw, dst = flow.dst_ip, data = meta.is_data](
                               Tick delay, Packet frame) {
        sw.sim_->schedule_after(
            delay, [s = &sw, p = std::move(frame), dst, data]() mutable {
              s->forward(std::move(p), dst, data);
            });
      };
      // Duplication: a byte-identical clone chases the original one tick
      // behind — the receiver sees the same PSN twice back to back.
      if (meta.event == EventType::kDuplicate) {
        Packet clone = pkt.clone_arena();
        ++sw.counters_.roce_tx;
        ++sw.fault_stats_.duplicates_emitted;
        send_at(depart + 1, std::move(clone));
      }
      send_at(depart, std::move(pkt));
      // A held (reordered) predecessor departs right behind this packet.
      if (meta.is_data) {
        if (const auto it = sw.reorder_slots_.find(flow);
            it != sw.reorder_slots_.end()) {
          sw.sim_->cancel(it->second.flush_event);
          Packet held = std::move(it->second.pkt);
          sw.reorder_slots_.erase(it);
          ++sw.counters_.roce_tx;
          send_at(depart + 1, std::move(held));
        }
      }
      return false;
    }

   private:
    EventInjectorSwitch& sw_;
  };

  static void build(EventInjectorSwitch& sw, pipeline::StageChain& chain) {
    chain.append(std::make_unique<Classify>(sw));
    chain.append(std::make_unique<EventMatch>(sw));
    chain.append(std::make_unique<Transform>(sw));
    chain.append(std::make_unique<MirrorTap>(sw));
    chain.append(std::make_unique<Emit>(sw));
  }
};

EventInjectorSwitch::EventInjectorSwitch(Simulator* sim, int num_ports,
                                         Options options)
    : sim_(sim), options_(options), mirror_(options.rng_seed) {
  ports_.reserve(static_cast<std::size_t>(num_ports));
  for (int i = 0; i < num_ports; ++i) {
    ports_.push_back(std::make_unique<Port>(sim, this, i));
  }
  SwitchPipeline::build(*this, rx_pipeline_);
}

void EventInjectorSwitch::add_route(Ipv4Address dst, int port_index) {
  routes_[dst] = port_index;
}

void EventInjectorSwitch::set_mirror_targets(
    std::vector<MirrorEngine::Target> targets) {
  mirror_.set_targets(std::move(targets));
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
  // Forward/mirror/reorder paths move the frame onward (the guard then
  // has nothing to do); an enforced drop leaves its buffer behind.
  ScopedPacketReclaim reclaim(pkt);
  pipeline::FrameMeta meta;
  meta.in_port = in_port;
  meta.ingress_ts = sim_->now();
  rx_pipeline_.run(pkt, meta);
}

void EventInjectorSwitch::start_burst_channel(const FlowKey& flow,
                                              const FaultParams& fault) {
  ++fault_stats_.burst_channels_started;
  // Seed derived from the switch seed and the flow identity, so channels
  // are independent per flow yet byte-deterministic for a fixed run seed.
  const std::uint64_t seed =
      options_.rng_seed ^
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
  const Tick refresh = std::max<Tick>(1, options_.pause_refresh_interval);
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
