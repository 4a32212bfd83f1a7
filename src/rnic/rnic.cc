#include "rnic/rnic.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "packet/packet_arena.h"
#include "util/logging.h"
#include "util/random.h"

namespace lumina {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rnic::Rnic(Simulator* sim, std::string name, const DeviceProfile& profile,
           RoceParameters roce, MacAddress mac,
           std::uint32_t telemetry_track)
    : sim_(sim),
      name_(std::move(name)),
      profile_(profile),
      roce_(roce),
      mac_(mac),
      telemetry_track_(telemetry_track),
      port_(std::make_unique<Port>(sim, this, 0)),
      cnp_limiter_(profile.cnp_mode) {
  // QPNs are generated pseudo-randomly at runtime (§3.2) — deterministically
  // seeded from the host name so runs are reproducible.
  next_qpn_ = 0x100 + static_cast<std::uint32_t>(fnv1a(name_) % 0xE00000);
  port_->set_drained_callback([this] { pump(); });
  configure_ets({100});
}

Rnic::~Rnic() = default;

QueuePair* Rnic::create_qp(const QpConfig& config) {
  const std::uint32_t qpn = next_qpn_;
  next_qpn_ = (next_qpn_ + 0x11) & kPsnMask;
  const auto slot = static_cast<std::uint32_t>(qps_.size());
  QpSlot& s = qps_.emplace_back(this, slot, qpn, config);
  slot_by_qpn_[qpn] = slot;

  const auto tc = static_cast<std::size_t>(std::max(0, config.traffic_class));
  if (tc >= tcs_.size()) tcs_.resize(tc + 1);
  s.tc = static_cast<std::uint32_t>(tc);
  s.tc_pos = static_cast<std::uint32_t>(tcs_[tc].members.size());
  tcs_[tc].members.push_back(slot);
  return &s.qp;
}

QueuePair* Rnic::find_qp(std::uint32_t qpn) {
  const auto it = slot_by_qpn_.find(qpn);
  return it == slot_by_qpn_.end() ? nullptr : &qps_[it->second].qp;
}

void Rnic::configure_ets(const std::vector<int>& weights) {
  // §6.2.1: the CX6 Dx scheduler is only non-work-conserving when multiple
  // ETS queues are configured; a single queue behaves normally.
  const bool work_conserving =
      !profile_.bug_nonwork_conserving_ets || weights.size() <= 1;
  ets_.configure(weights, profile_.link_gbps, work_conserving);
  if (tcs_.size() < weights.size()) tcs_.resize(weights.size());
}

Tick Rnic::min_cnp_interval() const {
  // E810's interval is hidden and ignores configuration (§6.3); NVIDIA NICs
  // honor min_time_between_cnps, including an explicit 0 (a CNP per marked
  // packet). A negative (unset) value selects the device default.
  if (!profile_.cnp_interval_configurable ||
      roce_.min_time_between_cnps < 0) {
    return profile_.default_min_time_between_cnps;
  }
  return roce_.min_time_between_cnps;
}

DcqcnRp& Rnic::rp_for(const QueuePair& qp) { return qps_[qp.slot()].rp; }

RocePacketSpec Rnic::packet_spec_for(const QueuePair& qp) const {
  RocePacketSpec spec;
  spec.src_mac = mac_;
  // Hosts are one L3 hop apart; the concrete next-hop MAC is irrelevant to
  // the analysis (and the mirror engine overwrites MACs anyway).
  spec.dst_mac = MacAddress::from_u48(0x020000000000ULL | qp.remote().ip.value);
  spec.src_ip = qp.local().ip;
  spec.dst_ip = qp.remote().ip;
  spec.src_udp_port = static_cast<std::uint16_t>(49152 + (qp.qpn() & 0x3fff));
  spec.dest_qpn = qp.remote().qpn;
  spec.mig_req = profile_.mig_req_default;
  return spec;
}

void Rnic::attach_telemetry(telemetry::Telemetry* t) {
  if (t == nullptr || t->metrics == nullptr) {
    tele_ = RnicTelemetryHooks{};
    return;
  }
  const std::string prefix = "rnic." + name_ + ".";
  telemetry::MetricsRegistry& reg = *t->metrics;
  tele_.trace = t->trace;
  tele_.nacks_sent = &reg.counter(prefix + "nacks_sent");
  tele_.cnps_sent = &reg.counter(prefix + "cnps_sent");
  tele_.timer_fires = &reg.counter(prefix + "timer_fires");
  tele_.retransmits = &reg.counter(prefix + "retransmits");
  // NACK generation sits in the hundreds of ns to single-digit us on
  // healthy NICs and ms on buggy ones (Fig. 8) — cover both regimes.
  tele_.nack_gen_latency =
      &reg.histogram(prefix + "nack_gen_latency_ns",
                     telemetry::BucketBounds::exponential(250, 2.0, 18));
  // Inter-CNP gaps probe the NIC's min-CNP-interval enforcement (§6.3).
  tele_.cnp_interval =
      &reg.histogram(prefix + "cnp_interval_ns",
                     telemetry::BucketBounds::exponential(1000, 2.0, 18));
  // Adaptive retransmission fires far below the configured RTO (§6.3).
  tele_.rto_fired_after =
      &reg.histogram(prefix + "rto_fired_after_ns",
                     telemetry::BucketBounds::exponential(4000, 2.0, 20));
  tele_.track = telemetry_track_;
}

void Rnic::enqueue_control(Packet pkt) {
  control_queue_.push_back(std::move(pkt));
  pump();
}

void Rnic::notify_tx_ready() { pump(); }

void Rnic::mark_tx_work(QueuePair& qp) {
  const QpSlot& s = qps_[qp.slot()];
  tcs_[s.tc].work.insert(s.tc_pos);
}

void Rnic::read_slow_path_begin() {
  ++active_read_episodes_;
  if (profile_.bug_noisy_neighbor &&
      active_read_episodes_ > profile_.noisy_neighbor_capacity) {
    // §6.2.2: too many concurrent read-loss slow paths wedge the whole RX
    // pipeline; every arriving packet is discarded while stalled, hurting
    // connections that never saw a drop.
    const Tick until = sim_->now() + profile_.noisy_neighbor_stall;
    if (until > rx_stalled_until_) {
      rx_stalled_until_ = until;
      LUMINA_LOG(kInfo) << name_ << ": RX pipeline stalled ("
                        << active_read_episodes_
                        << " concurrent read slow paths)";
    }
  }
}

void Rnic::read_slow_path_end() {
  if (active_read_episodes_ > 0) --active_read_episodes_;
}

// ---------------------------------------------------------------------------
// RX path
// ---------------------------------------------------------------------------

void Rnic::handle_packet(int, Packet pkt) {
  // Nothing moves the frame out (the dispatch captures a parsed copy), so
  // the guard recycles the buffer on every path.
  ScopedPacketReclaim reclaim(pkt);

  // 802.1Qbb pause: MAC-layer flow control, honored ahead of the RoCE RX
  // pipeline (and regardless of any pipeline stall). Kept out of the
  // generic rx counters — real NICs account pause frames separately.
  if (is_pfc_frame(pkt)) {
    if (const auto frame = parse_pfc_frame(pkt)) on_pause_frame(*frame);
    return;
  }
  ++counters_.rx_packets;
  counters_.rx_bytes += pkt.size();

  const Tick now = sim_->now();
  if (now < rx_stalled_until_) {
    ++counters_.rx_discards_phy;
    return;
  }

  // The frame's one decode; non-RoCE frames stop here.
  const std::optional<RoceView> view = parse_roce(pkt);
  if (!view) return;

  // Hardware iCRC check: corrupted frames are counted and dropped.
  if (!verify_icrc(pkt)) {
    ++counters_.icrc_error_packets;
    return;
  }
  dispatch(*view, now);
}

void Rnic::dispatch(const RoceView& view, Tick now) {
  QueuePair* qp = find_qp(view.bth.dest_qpn);
  if (qp == nullptr) return;

  Tick delay = profile_.rx_pipeline_delay;

  // §6.2.3: APM reconciliation slow path — data packets carrying MigReq=0
  // for a not-yet-reconciled QP pass through a shared service queue with
  // finite capacity; overflow shows up as rx_discards_phy.
  if (profile_.apm_slow_path_on_mig_req0 && is_data_opcode(view.bth.opcode) &&
      !view.bth.mig_req && !qp->apm_reconciled()) {
    const Tick service = profile_.apm_slow_path_service;
    const std::size_t backlog =
        apm_busy_until_ > now
            ? static_cast<std::size_t>((apm_busy_until_ - now) / service)
            : 0;
    if (backlog >= profile_.apm_slow_path_queue_pkts) {
      apm_shedding_ = true;
    } else if (apm_shedding_ && backlog == 0) {
      apm_shedding_ = false;  // resume only once fully drained
    }
    if (apm_shedding_) {
      ++counters_.rx_discards_phy;
      return;
    }
    const Tick start = std::max(now, apm_busy_until_);
    apm_busy_until_ = start + service;
    delay = (apm_busy_until_ - now) + profile_.rx_pipeline_delay;
  }

  // DCQCN notification point.
  if (is_data_opcode(view.bth.opcode) && view.ecn_ce() &&
      roce_.dcqcn_np_enable) {
    ++counters_.np_ecn_marked_roce_packets;
    maybe_send_cnp(*qp);
  }

  // Box the parsed view (too big for the inline callback buffer), drawing
  // from the recycled pool; unfired callbacks free the box via unique_ptr.
  std::unique_ptr<RoceView> boxed;
  if (!view_pool_.empty()) {
    boxed = std::move(view_pool_.back());
    view_pool_.pop_back();
    *boxed = view;
  } else {
    boxed = std::make_unique<RoceView>(view);
  }
  sim_->schedule_after(delay, [this, vb = std::move(boxed), qp]() mutable {
    const RoceView& v = *vb;
    if (v.bth.opcode == IbOpcode::kCnp) {
      qp->on_cnp();
    } else if (v.bth.opcode == IbOpcode::kAcknowledge) {
      qp->on_ack_packet(v);
    } else if (v.bth.opcode == IbOpcode::kAtomicAck) {
      qp->on_atomic_ack(v);
    } else if (is_read_response(v.bth.opcode)) {
      qp->on_read_response_packet(v);
    } else {
      qp->on_request_packet(v);
    }
    view_pool_.push_back(std::move(vb));
  });
}

void Rnic::on_pause_frame(const PfcFrame& frame) {
  const Tick now = sim_->now();
  const double gbps = port_->link().gbps;
  bool resumed = false;
  for (std::size_t pri = 0; pri < pause_until_.size(); ++pri) {
    if ((frame.class_enable >> pri & 1u) == 0) continue;
    const Tick pause = pfc_quanta_to_ns(frame.quanta[pri], gbps);
    Tick& until = pause_until_[pri];
    if (pause == 0) {
      // Explicit resume: reopen the priority and credit back the unserved
      // remainder of the pause.
      ++pause_stats_.pause_resumes_rx;
      if (until > now) {
        pause_stats_.paused_ns -= static_cast<std::uint64_t>(until - now);
        until = now;
        resumed = true;
      }
    } else {
      ++pause_stats_.pause_frames_rx;
      const Tick new_until = now + pause;
      if (new_until > until) {
        pause_stats_.paused_ns +=
            static_cast<std::uint64_t>(new_until - std::max(until, now));
        until = new_until;
      }
    }
  }
  telemetry::trace_instant(tele_.trace, "rnic", "pfc_pause", now, tele_.track,
                           frame.class_enable);
  if (resumed) notify_tx_ready();
}

void Rnic::notify_out_of_order(QueuePair& qp) {
  if (!profile_.cnp_on_out_of_order || !roce_.dcqcn_np_enable) return;
  maybe_send_cnp(qp);
}

void Rnic::maybe_send_cnp(QueuePair& qp) {
  if (!cnp_limiter_.allow(qp.remote().ip, qp.qpn(), sim_->now(),
                          min_cnp_interval())) {
    return;
  }
  if (!profile_.bug_cnp_sent_counter_stuck) {
    ++counters_.np_cnp_sent;  // §6.2.4: stuck at 0 on E810
  }
  const Tick now = sim_->now();
  telemetry::inc(tele_.cnps_sent);
  if (last_cnp_sent_at_ >= 0) {
    telemetry::observe(tele_.cnp_interval, now - last_cnp_sent_at_);
  }
  last_cnp_sent_at_ = now;
  telemetry::trace_instant(tele_.trace, "rnic", "cnp_sent", now, tele_.track,
                           qp.qpn());
  RocePacketSpec spec = packet_spec_for(qp);
  spec.opcode = IbOpcode::kCnp;
  spec.psn = 0;
  enqueue_control(build_roce_packet(spec));
}

// ---------------------------------------------------------------------------
// TX path (egress engine)
// ---------------------------------------------------------------------------

void Rnic::pump() {
  if (!port_->idle()) return;  // drained callback re-enters pump()
  const Tick now = sim_->now();

  if (!control_queue_.empty()) {
    Packet pkt = control_queue_.pop_front();
    ++counters_.tx_packets;
    counters_.tx_bytes += pkt.size();
    port_->send(std::move(pkt));
    return;
  }

  const std::size_t ntc = tcs_.size();
  std::vector<bool>& active = pump_active_;
  std::vector<std::size_t>& bytes = pump_bytes_;
  std::vector<QpSlot*>& chosen = pump_chosen_;
  std::vector<std::uint32_t>& chosen_pos = pump_chosen_pos_;
  active.assign(ntc, false);
  bytes.assign(ntc, 0);
  chosen.assign(ntc, nullptr);
  chosen_pos.assign(ntc, 0);
  Tick earliest = std::numeric_limits<Tick>::max();

  for (std::size_t t = 0; t < ntc; ++t) {
    TcState& tc = tcs_[t];
    if (tc.members.empty()) continue;
    // PFC gate: a paused priority's class sits out; it re-arms the pump
    // for the moment the pause quanta expire.
    if (t < pause_until_.size() && pause_until_[t] > now) {
      earliest = std::min(earliest, pause_until_[t]);
      continue;
    }
    // Round-robin over the work set only: members that cannot have TX
    // work were either never marked or get dropped here when a scan finds
    // them exhausted. Same cyclic order and pick as scanning the whole
    // member table — idle QPs contribute nothing to pick or earliest.
    const auto scan = [&](std::set<std::uint32_t>::iterator it,
                          std::set<std::uint32_t>::iterator end) {
      while (it != end) {
        const std::uint32_t pos = *it;
        QpSlot& s = qps_[tc.members[pos]];
        const Tick ready = s.qp.tx_ready_time();
        if (ready == std::numeric_limits<Tick>::max()) {
          it = tc.work.erase(it);
          continue;
        }
        const Tick tt = std::max(ready, s.pacing_next);
        if (tt <= now) {
          active[t] = true;
          chosen[t] = &s;
          chosen_pos[t] = pos;
          bytes[t] = s.qp.next_packet_bytes() + Packet::kWireOverheadBytes;
          return true;
        }
        earliest = std::min(earliest, tt);
        ++it;
      }
      return false;
    };
    const auto cursor = static_cast<std::uint32_t>(tc.cursor);
    if (!scan(tc.work.lower_bound(cursor), tc.work.end())) {
      scan(tc.work.begin(), tc.work.lower_bound(cursor));
    }
  }

  bool any_active = false;
  for (std::size_t tc = 0; tc < ntc; ++tc) any_active = any_active || active[tc];

  if (any_active) {
    const auto pick = ets_.pick(now, active, bytes);
    if (pick) {
      const auto tci = static_cast<std::size_t>(*pick);
      QpSlot& s = *chosen[tci];
      auto pkt = s.qp.build_next_packet(now);
      if (pkt) {
        const std::size_t wire = pkt->wire_size();
        const double rate = s.rp.rate_gbps();
        s.pacing_next =
            now + static_cast<Tick>(static_cast<double>(wire) * 8.0 / rate);
        s.rp.on_packet_sent(wire);
        ets_.on_sent(*pick, wire, now);
        // Advance the round-robin cursor past the QP just served.
        TcState& tc = tcs_[tci];
        tc.cursor = (chosen_pos[tci] + 1) % tc.members.size();
        ++counters_.tx_packets;
        counters_.tx_bytes += pkt->size();
        port_->send(std::move(*pkt));
        return;
      }
      // A ready QP produced no packet (stale readiness); retry shortly.
      earliest = std::min(earliest, now + 1);
    } else {
      // All active classes are token-starved (non-work-conserving mode).
      earliest = std::min(
          earliest, ets_.next_eligible_time(now, active, bytes));
    }
  }

  if (earliest != std::numeric_limits<Tick>::max()) {
    schedule_pump(std::max(earliest, now + 1));
  }
}

void Rnic::schedule_pump(Tick when) {
  if (pump_scheduled_for_ >= 0 && pump_scheduled_for_ <= when) return;
  pump_scheduled_for_ = when;
  sim_->schedule_at(when, [this, when] {
    if (pump_scheduled_for_ == when) pump_scheduled_for_ = -1;
    pump();
  });
}

}  // namespace lumina
