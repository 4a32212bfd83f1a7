#include "rnic/qp.h"

#include <algorithm>
#include <cmath>

#include "rnic/rnic.h"
#include "util/logging.h"

namespace lumina {
namespace {

/// Deterministic hash -> [0,1) used for adaptive-retransmission jitter.
double hash01(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::uint32_t packets_for(std::uint64_t len, std::uint32_t mtu) {
  if (len == 0) return 1;
  return static_cast<std::uint32_t>((len + mtu - 1) / mtu);
}

}  // namespace

QueuePair::QueuePair(Rnic* rnic, std::uint32_t qpn, QpConfig config,
                     std::uint32_t slot)
    : rnic_(rnic), qpn_(qpn), slot_(slot), config_(config) {}

void QueuePair::connect(const QpEndpointInfo& local,
                        const QpEndpointInfo& remote) {
  local_ = local;
  remote_ = remote;
  connected_ = true;
  next_psn_ = local.ipsn & kPsnMask;
  read_last_rx_psn_ = psn_add(local.ipsn, -1);
  epsn_ = remote.ipsn & kPsnMask;
  rsp_last_rx_psn_ = psn_add(remote.ipsn, -1);
  resp_base_psn_ = remote.ipsn & kPsnMask;
}

void QueuePair::post_send(const WorkRequest& wr) {
  if (error_ || !connected_) {
    if (!connected_) {
      LUMINA_LOG(kWarn) << "post_send on unconnected QP 0x" << std::hex
                        << qpn_;
    }
    deliver_completion({wr.wr_id, WcStatus::kFlushed, rnic_->sim()->now()});
    return;
  }
  Wqe wqe;
  wqe.wr = wr;
  wqe.posted_at = rnic_->sim()->now();
  packetize(wqe);
  wqes_.push_back(wqe);
  rnic_->mark_tx_work(*this);
  rnic_->notify_tx_ready();
}

void QueuePair::post_recv(std::uint64_t wr_id) { recv_queue_.push_back(wr_id); }

void QueuePair::packetize(Wqe& wqe) {
  const std::uint32_t mtu = config_.mtu;
  const std::uint32_t n = packets_for(wqe.wr.length, mtu);
  wqe.start_psn = next_psn_;
  wqe.n_pkts = n;
  const std::size_t wqe_index = wqes_.size();

  if (wqe.wr.verb == RdmaVerb::kFetchAdd ||
      wqe.wr.verb == RdmaVerb::kCmpSwap) {
    TxDesc desc;
    desc.psn = next_psn_;
    desc.opcode = wqe.wr.verb == RdmaVerb::kFetchAdd ? IbOpcode::kFetchAdd
                                                     : IbOpcode::kCmpSwap;
    AtomicEth atomic;
    atomic.vaddr = wqe.wr.remote_addr;
    atomic.rkey = wqe.wr.rkey;
    if (wqe.wr.verb == RdmaVerb::kFetchAdd) {
      atomic.swap_add = wqe.wr.compare_add;  // the add operand
    } else {
      atomic.swap_add = wqe.wr.swap;
      atomic.compare = wqe.wr.compare_add;
    }
    desc.atomic_eth = atomic;
    desc.wqe_index = wqe_index;
    tx_descs_.push_back(desc);
    next_psn_ = psn_add(next_psn_, 1);
    return;
  }

  if (wqe.wr.verb == RdmaVerb::kRead) {
    TxDesc desc;
    desc.psn = next_psn_;
    desc.psn_span = n;  // responses occupy [psn, psn + n - 1]
    desc.opcode = IbOpcode::kReadRequest;
    desc.reth = Reth{wqe.wr.remote_addr, wqe.wr.rkey,
                     static_cast<std::uint32_t>(wqe.wr.length)};
    desc.wqe_index = wqe_index;
    tx_descs_.push_back(desc);
    next_psn_ = psn_add(next_psn_, n);
    return;
  }

  const bool is_write = wqe.wr.verb == RdmaVerb::kWrite;
  std::uint64_t remaining = wqe.wr.length;
  for (std::uint32_t i = 0; i < n; ++i) {
    TxDesc desc;
    desc.psn = next_psn_;
    desc.wqe_index = wqe_index;
    desc.payload_len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, mtu));
    remaining -= desc.payload_len;
    const bool first = i == 0;
    const bool last = i == n - 1;
    if (is_write) {
      desc.opcode = first && last ? IbOpcode::kWriteOnly
                    : first       ? IbOpcode::kWriteFirst
                    : last        ? IbOpcode::kWriteLast
                                  : IbOpcode::kWriteMiddle;
      if (first) {
        desc.reth = Reth{wqe.wr.remote_addr, wqe.wr.rkey,
                         static_cast<std::uint32_t>(wqe.wr.length)};
      }
    } else {
      desc.opcode = first && last ? IbOpcode::kSendOnly
                    : first       ? IbOpcode::kSendFirst
                    : last        ? IbOpcode::kSendLast
                                  : IbOpcode::kSendMiddle;
    }
    desc.ack_req = last;
    tx_descs_.push_back(desc);
    next_psn_ = psn_add(next_psn_, 1);
  }
}

// ---------------------------------------------------------------------------
// TX interface
// ---------------------------------------------------------------------------

Tick QueuePair::tx_ready_time() const {
  constexpr Tick kNever = std::numeric_limits<Tick>::max();
  if (error_ || !connected_) return kNever;
  Tick ready = kNever;
  if (snd_nxt_ < tx_descs_.size()) ready = std::min(ready, tx_hold_until_);
  if (resp_next_ < resp_descs_.size()) {
    ready = std::min(ready, resp_hold_until_);
  }
  return ready;
}

std::size_t QueuePair::next_packet_bytes() const {
  // Requester stream has priority in build_next_packet; size accordingly.
  constexpr std::size_t kHeaders = 14 + 20 + 8 + 12 + 4;
  if (snd_nxt_ < tx_descs_.size() &&
      (resp_next_ >= resp_descs_.size() ||
       tx_hold_until_ <= resp_hold_until_)) {
    const TxDesc& d = tx_descs_[snd_nxt_];
    return kHeaders + (d.reth ? Reth::kWireSize : 0) + d.payload_len;
  }
  if (resp_next_ < resp_descs_.size()) {
    const RespDesc& d = resp_descs_[resp_next_];
    const bool aeth = d.opcode != IbOpcode::kReadRespMiddle;
    return kHeaders + (aeth ? Aeth::kWireSize : 0) + d.payload_len;
  }
  return kHeaders;
}

std::optional<Packet> QueuePair::build_next_packet(Tick now) {
  // Requester stream first, then the responder's read-response stream.
  if (snd_nxt_ < tx_descs_.size() && now >= tx_hold_until_) {
    TxDesc& desc = tx_descs_[snd_nxt_++];
    RocePacketSpec spec = rnic_->packet_spec_for(*this);
    spec.opcode = desc.opcode;
    spec.psn = desc.psn;
    spec.ack_req = desc.ack_req;
    spec.reth = desc.reth;
    spec.atomic_eth = desc.atomic_eth;
    spec.payload_len = desc.payload_len;
    if (desc.sent_count > 0) {
      ++rnic_->counters().retransmitted_packets;
      telemetry::inc(rnic_->tele().retransmits);
      telemetry::trace_instant(rnic_->tele().trace, "rnic", "retransmit", now,
                               rnic_->tele().track, desc.psn);
    }
    ++desc.sent_count;
    arm_rto();
    return build_roce_packet(spec);
  }
  if (resp_next_ < resp_descs_.size() && now >= resp_hold_until_) {
    if (resp_next_ < resp_highwater_) {
      ++rnic_->counters().retransmitted_packets;
      telemetry::inc(rnic_->tele().retransmits);
      telemetry::trace_instant(rnic_->tele().trace, "rnic", "retransmit", now,
                               rnic_->tele().track,
                               resp_descs_[resp_next_].psn);
    } else {
      resp_highwater_ = resp_next_ + 1;
    }
    const RespDesc& desc = resp_descs_[resp_next_++];
    RocePacketSpec spec = rnic_->packet_spec_for(*this);
    spec.opcode = desc.opcode;
    spec.psn = desc.psn;
    spec.payload_len = desc.payload_len;
    if (desc.opcode != IbOpcode::kReadRespMiddle) {
      spec.aeth = Aeth::ack(msn_);
    }
    return build_roce_packet(spec);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Requester RX: ACK / NAK
// ---------------------------------------------------------------------------

void QueuePair::on_ack_packet(const RoceView& view) {
  if (error_ || !view.aeth) return;
  const std::uint32_t psn = view.bth.psn;
  if (view.aeth->is_rnr_nak()) {
    ++rnic_->counters().rnr_nak_received;
    ++rnr_retries_;
    if (rnr_retries_ > config_.rnr_retry) {
      enter_error(WcStatus::kRnrRetryExceeded);
      return;
    }
    // Retry the NAKed message after the responder's advertised RNR timer.
    start_rewind(psn, rnr_timer_to_wait(view.aeth->rnr_timer_code()));
    return;
  }
  if (view.aeth->is_access_nak()) {
    // Remote access error: bad rkey or out-of-bounds request. Fatal to the
    // QP per IBTA; outstanding work flushes.
    enter_error(WcStatus::kRemoteAccessError);
    return;
  }
  if (view.aeth->is_nak()) {
    ++rnic_->counters().packet_seq_err;
    // NAK(psn): everything before psn is implicitly acknowledged; the
    // sender rewinds to psn after the device's NACK-reaction delay.
    if (psn_gt(psn, tx_descs_.empty() ? psn : tx_descs_[0].psn)) {
      advance_snd_una(psn_add(psn, -1));
    }
    start_rewind(psn, rnic_->profile().nack_react_delay_write);
    return;
  }
  advance_snd_una(psn);
}

void QueuePair::on_atomic_ack(const RoceView& view) {
  if (error_ || !view.atomic_ack_eth) return;
  const std::uint32_t psn = view.bth.psn;
  // Record the original value on the WQE before cumulative completion.
  for (auto& wqe : wqes_) {
    if (!wqe.completed &&
        (wqe.wr.verb == RdmaVerb::kFetchAdd ||
         wqe.wr.verb == RdmaVerb::kCmpSwap) &&
        wqe.start_psn == psn) {
      wqe.atomic_original = view.atomic_ack_eth->original;
      break;
    }
  }
  advance_snd_una(psn);
}

void QueuePair::advance_snd_una(std::uint32_t acked_psn) {
  bool progressed = false;
  while (snd_una_ < tx_descs_.size()) {
    const TxDesc& desc = tx_descs_[snd_una_];
    if (desc.sent_count == 0) break;
    const std::uint32_t desc_end = psn_add(desc.psn, desc.psn_span - 1);
    if (!psn_ge(acked_psn, desc_end)) break;
    ++snd_una_;
    progressed = true;
  }
  if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
  if (progressed) {
    retry_count_ = 0;
    rto_fires_ = 0;
    rnr_retries_ = 0;
  }
  // Complete WQEs whose last PSN is covered.
  for (std::size_t i = 0; i < wqes_.size(); ++i) {
    Wqe& wqe = wqes_[i];
    if (wqe.completed || wqe.wr.verb == RdmaVerb::kRead) continue;
    const std::uint32_t last = psn_add(wqe.start_psn, wqe.n_pkts - 1);
    if (psn_ge(acked_psn, last)) {
      complete_wqe(i, WcStatus::kSuccess);
    } else {
      break;
    }
  }
  disarm_rto();
  arm_rto();
}

void QueuePair::start_rewind(std::uint32_t psn, Tick extra_hold) {
  const std::size_t index = desc_index_for_psn(psn);
  if (index >= tx_descs_.size()) return;
  snd_nxt_ = std::max(index, snd_una_);
  const Tick now = rnic_->sim()->now();
  tx_hold_until_ = std::max(tx_hold_until_, now + extra_hold);
  // Mark at rewind time, not at hold expiry: pumps that run while the
  // hold is pending must see this QP's hold deadline as `earliest`.
  rnic_->mark_tx_work(*this);
  rnic_->sim()->schedule_at(tx_hold_until_,
                            [this] { rnic_->notify_tx_ready(); });
}

std::size_t QueuePair::desc_index_for_psn(std::uint32_t psn) const {
  // Send/Write streams consume one PSN per desc, so the distance from the
  // first desc's PSN is the index; fall back to a scan for mixed streams.
  if (tx_descs_.empty()) return 0;
  const std::int32_t dist = psn_distance(psn, tx_descs_[0].psn);
  if (dist >= 0 && static_cast<std::size_t>(dist) < tx_descs_.size() &&
      tx_descs_[static_cast<std::size_t>(dist)].psn == psn) {
    return static_cast<std::size_t>(dist);
  }
  for (std::size_t i = 0; i < tx_descs_.size(); ++i) {
    const TxDesc& d = tx_descs_[i];
    if (psn_ge(psn, d.psn) &&
        psn_ge(psn_add(d.psn, d.psn_span - 1), psn)) {
      return i;
    }
  }
  return tx_descs_.size();
}

// ---------------------------------------------------------------------------
// Requester RX: read responses (implied-NAK path)
// ---------------------------------------------------------------------------

std::optional<std::uint32_t> QueuePair::expected_read_resp_psn() const {
  // Interleaved verbs make response PSNs non-contiguous: the expectation is
  // always anchored at the oldest incomplete read WQE's progress.
  for (const auto& wqe : wqes_) {
    if (!wqe.completed && wqe.wr.verb == RdmaVerb::kRead) {
      return psn_add(wqe.start_psn, wqe.pkts_done);
    }
  }
  return std::nullopt;
}

void QueuePair::on_read_response_packet(const RoceView& view) {
  if (error_) return;
  const std::uint32_t psn = view.bth.psn;
  // Stream rewind (a retransmission round began) re-arms the implied NAK,
  // mirroring the ITER logic the injector uses (Fig. 3).
  if (!psn_gt(psn, read_last_rx_psn_)) read_nack_armed_ = true;
  read_last_rx_psn_ = psn;

  const auto expected = expected_read_resp_psn();
  if (!expected) return;  // stale response: no read outstanding
  if (psn == *expected) {
    read_nack_armed_ = true;
    retry_count_ = 0;
    rto_fires_ = 0;
    // Credit the packet to the oldest incomplete read WQE.
    for (std::size_t i = 0; i < wqes_.size(); ++i) {
      Wqe& wqe = wqes_[i];
      if (wqe.completed || wqe.wr.verb != RdmaVerb::kRead) continue;
      ++wqe.pkts_done;
      if (wqe.pkts_done >= wqe.n_pkts) complete_wqe(i, WcStatus::kSuccess);
      break;
    }
    // Read requests are implicitly acknowledged by their responses:
    // retire leading descriptors whose WQE has completed so the RTO
    // disarms once nothing is outstanding.
    while (snd_una_ < snd_nxt_ && snd_una_ < tx_descs_.size() &&
           wqes_[tx_descs_[snd_una_].wqe_index].completed) {
      ++snd_una_;
    }
    disarm_rto();
    arm_rto();
    return;
  }

  if (psn_gt(psn, *expected)) {
    // Gap: a response was lost. The requester "implies" a NAK by issuing a
    // fresh read request for the remaining data (§6.1), after the device's
    // (potentially very slow: 83 ms on E810) read NACK-generation delay.
    if (!rnic_->profile().bug_implied_nak_counter_stuck) {
      ++rnic_->counters().implied_nak_seq_err;
    }
    if (read_nack_armed_) {
      read_nack_armed_ = false;
      rnic_->notify_out_of_order(*this);
      rnic_->read_slow_path_begin();
      const Tick detected_at = rnic_->sim()->now();
      rnic_->sim()->schedule_after(
          rnic_->profile().nack_gen_delay_read, [this, detected_at] {
            const RnicTelemetryHooks& tele = rnic_->tele();
            const Tick now = rnic_->sim()->now();
            telemetry::inc(tele.nacks_sent);
            telemetry::observe(tele.nack_gen_latency, now - detected_at);
            telemetry::trace_instant(tele.trace, "rnic", "read_rerequest",
                                     now, tele.track, qpn_);
            rnic_->read_slow_path_end();
            if (!error_) issue_read_rerequest(0);
          });
    }
    return;
  }
  // psn < expected: stale duplicate response; ignore.
}

void QueuePair::issue_read_rerequest(Tick hold) {
  // Find the oldest incomplete read WQE; everything from its in-order
  // progress point to the end of its range must be re-requested.
  for (std::size_t i = 0; i < wqes_.size(); ++i) {
    Wqe& wqe = wqes_[i];
    if (wqe.completed || wqe.wr.verb != RdmaVerb::kRead) continue;
    const std::uint32_t remaining_pkts = wqe.n_pkts - wqe.pkts_done;
    if (remaining_pkts == 0) return;
    const std::uint64_t done_bytes =
        static_cast<std::uint64_t>(wqe.pkts_done) * config_.mtu;
    TxDesc desc;
    desc.psn = psn_add(wqe.start_psn, wqe.pkts_done);
    desc.psn_span = remaining_pkts;
    desc.opcode = IbOpcode::kReadRequest;
    desc.reth = Reth{wqe.wr.remote_addr + done_bytes, wqe.wr.rkey,
                     static_cast<std::uint32_t>(wqe.wr.length - done_bytes)};
    desc.wqe_index = i;
    desc.sent_count = 1;  // counts as a retransmission when it goes out
    tx_descs_.insert(
        tx_descs_.begin() + static_cast<std::ptrdiff_t>(snd_nxt_), desc);
    const Tick now = rnic_->sim()->now();
    tx_hold_until_ = std::max(tx_hold_until_, now + hold);
    rnic_->mark_tx_work(*this);
    rnic_->notify_tx_ready();
    return;
  }
}

// ---------------------------------------------------------------------------
// Responder RX: request packets (Send/Write data, Read requests)
// ---------------------------------------------------------------------------

void QueuePair::on_request_packet(const RoceView& view) {
  if (error_) return;
  const std::uint32_t psn = view.bth.psn;
  // Rewind detection re-arms the one-NACK-per-episode latch.
  if (!psn_gt(psn, rsp_last_rx_psn_)) nack_armed_ = true;
  rsp_last_rx_psn_ = psn;

  if (view.bth.opcode == IbOpcode::kReadRequest) {
    responder_handle_read_request(view);
    return;
  }
  if (is_atomic(view.bth.opcode)) {
    responder_handle_atomic(view);
    return;
  }
  responder_handle_data(view);
}

bool QueuePair::validate_remote_access(std::uint64_t vaddr,
                                       std::uint64_t len,
                                       std::uint32_t rkey) const {
  if (rkey != local_.rkey) return false;
  const std::uint64_t begin = local_.buffer_addr;
  const std::uint64_t end = begin + local_.buffer_len;
  return vaddr >= begin && len <= end - vaddr;
}

void QueuePair::schedule_access_nak(std::uint32_t psn) {
  ++rnic_->counters().remote_access_errors;
  const std::uint32_t msn = msn_;
  rnic_->sim()->schedule_after(
      rnic_->profile().ack_generation_delay, [this, psn, msn] {
        RocePacketSpec spec = rnic_->packet_spec_for(*this);
        spec.opcode = IbOpcode::kAcknowledge;
        spec.psn = psn;
        spec.aeth = Aeth::nak_remote_access(msn);
        rnic_->enqueue_control(build_roce_packet(spec));
      });
}

void QueuePair::responder_handle_data(const RoceView& view) {
  const std::uint32_t psn = view.bth.psn;
  // Receiver-not-ready: a Send message arriving with no posted receive
  // buffer draws an RNR NAK; the whole message is silently discarded until
  // the requester retries after the RNR timer.
  if (is_send(view.bth.opcode)) {
    const bool message_start = view.bth.opcode == IbOpcode::kSendFirst ||
                               view.bth.opcode == IbOpcode::kSendOnly;
    if (rnr_pending_ && !(psn == epsn_ && message_start)) {
      return;  // mid-message packets of a shed Send: drop silently
    }
    if (psn == epsn_ && message_start) {
      if (recv_queue_.empty()) {
        // Not (or still not) ready: NAK this attempt and shed the message.
        rnr_pending_ = true;
        ++rnic_->counters().rnr_nak_sent;
        const std::uint32_t expected = epsn_;
        const std::uint32_t msn = msn_;
        rnic_->sim()->schedule_after(
            rnic_->profile().ack_generation_delay, [this, expected, msn] {
              RocePacketSpec spec = rnic_->packet_spec_for(*this);
              spec.opcode = IbOpcode::kAcknowledge;
              spec.psn = expected;
              spec.aeth = Aeth::rnr_nak(msn, config_.rnr_timer_code);
              rnic_->enqueue_control(build_roce_packet(spec));
            });
        return;
      }
      rnr_pending_ = false;  // a buffer is available; resume processing
    }
  }
  if (psn == epsn_) {
    // RDMA Write: validate the rkey and target range before any state
    // advances (the first/only packet carries the RETH).
    if (view.reth && is_write(view.bth.opcode) &&
        !validate_remote_access(view.reth->vaddr, view.reth->dma_len,
                                view.reth->rkey)) {
      schedule_access_nak(psn);
      return;
    }
    epsn_ = psn_add(epsn_, 1);
    nack_armed_ = true;
    // Coalesced ACKs: besides the per-message ACK, acknowledge every Nth
    // in-order packet so the requester's snd_una tracks long messages
    // (real RNICs ack periodically within large transfers).
    if (++pkts_since_ack_ >= std::max(1, config_.ack_coalescing) &&
        !is_last_or_only(view.bth.opcode)) {
      pkts_since_ack_ = 0;
      schedule_ack(psn);
    }
    if (is_last_or_only(view.bth.opcode)) {
      pkts_since_ack_ = 0;
      msn_ = (msn_ + 1) & kPsnMask;
      // §6.2.3: the QP's APM state reconciles once a full message has been
      // received in order.
      apm_reconciled_ = true;
      if (is_send(view.bth.opcode) && !recv_queue_.empty()) {
        recv_queue_.pop_front();
      }
    }
    if (view.bth.ack_req || is_last_or_only(view.bth.opcode)) {
      schedule_ack(psn);
    }
    return;
  }
  if (psn_gt(psn, epsn_)) {
    // Out-of-order: Go-Back-N NAK, one per episode (§4 retransmission
    // logic; the packet itself is discarded).
    if (nack_armed_) {
      nack_armed_ = false;
      ++rnic_->counters().out_of_sequence;
      schedule_nack();
      rnic_->notify_out_of_order(*this);
    }
    return;
  }
  // Duplicate of an already-received packet: acknowledge current state.
  ++rnic_->counters().duplicate_request;
  schedule_ack(psn_add(epsn_, -1));
}

void QueuePair::responder_handle_read_request(const RoceView& view) {
  const std::uint32_t psn = view.bth.psn;
  const std::uint32_t len = view.reth ? view.reth->dma_len : 0;
  const std::uint32_t span = packets_for(len, config_.mtu);

  if (psn == epsn_) {
    if (!view.reth ||
        !validate_remote_access(view.reth->vaddr, view.reth->dma_len,
                                view.reth->rkey)) {
      schedule_access_nak(psn);
      return;
    }
    // Fresh request: extend the response stream.
    epsn_ = psn_add(epsn_, span);
    msn_ = (msn_ + 1) & kPsnMask;
    append_read_response_descs(psn, len);
    rnic_->mark_tx_work(*this);
    rnic_->notify_tx_ready();
    return;
  }
  if (psn_gt(epsn_, psn)) {
    // Retransmitted ("implied NAK") request: rewind the response stream to
    // the requested PSN after the device's read NACK-reaction delay.
    ++rnic_->counters().duplicate_request;
    const std::int32_t index = psn_distance(psn, resp_base_psn_);
    if (index >= 0 &&
        static_cast<std::size_t>(index) < resp_descs_.size()) {
      resp_next_ = static_cast<std::size_t>(index);
      // The re-request carries the remaining length from an advanced
      // vaddr; the response descriptors for that range already exist, but
      // their first-packet opcode must be valid from the rewind point.
      resp_descs_[resp_next_].opcode =
          resp_descs_[resp_next_].opcode == IbOpcode::kReadRespLast ||
                  static_cast<std::size_t>(index) + 1 == resp_descs_.size()
              ? IbOpcode::kReadRespOnly
              : IbOpcode::kReadRespFirst;
      const Tick now = rnic_->sim()->now();
      resp_hold_until_ = std::max(
          resp_hold_until_, now + rnic_->profile().nack_react_delay_read);
      // As in start_rewind: the response stream has work from this instant
      // (held), so intermediate pumps must account for its deadline.
      rnic_->mark_tx_work(*this);
      rnic_->sim()->schedule_at(resp_hold_until_,
                                [this] { rnic_->notify_tx_ready(); });
    }
    return;
  }
  // Request from the future: a preceding request was lost — NAK it.
  if (nack_armed_) {
    nack_armed_ = false;
    ++rnic_->counters().out_of_sequence;
    schedule_nack();
  }
}

void QueuePair::append_read_response_descs(std::uint32_t psn,
                                           std::uint32_t len) {
  if (resp_descs_.empty()) resp_base_psn_ = psn;
  const std::uint32_t n = packets_for(len, config_.mtu);
  std::uint64_t remaining = len;
  for (std::uint32_t i = 0; i < n; ++i) {
    RespDesc desc;
    desc.psn = psn_add(psn, i);
    desc.payload_len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, config_.mtu));
    remaining -= desc.payload_len;
    const bool first = i == 0;
    const bool last = i == n - 1;
    desc.opcode = first && last ? IbOpcode::kReadRespOnly
                  : first       ? IbOpcode::kReadRespFirst
                  : last        ? IbOpcode::kReadRespLast
                                : IbOpcode::kReadRespMiddle;
    resp_descs_.push_back(desc);
  }
}

void QueuePair::responder_handle_atomic(const RoceView& view) {
  const std::uint32_t psn = view.bth.psn;
  if (!view.atomic_eth) return;
  if (psn == epsn_) {
    if (!validate_remote_access(view.atomic_eth->vaddr, 8,
                                view.atomic_eth->rkey)) {
      schedule_access_nak(psn);
      return;
    }
    epsn_ = psn_add(epsn_, 1);
    msn_ = (msn_ + 1) & kPsnMask;
    nack_armed_ = true;
    // Execute the operation atomically against simulated memory and cache
    // the original value: a retransmitted request must see the SAME result
    // without re-executing (IBTA responder-resources semantics).
    const AtomicEth& op = *view.atomic_eth;
    std::uint64_t& word = atomic_memory_[op.vaddr];
    const std::uint64_t original = word;
    if (view.bth.opcode == IbOpcode::kFetchAdd) {
      word += op.swap_add;
    } else if (original == op.compare) {
      word = op.swap_add;
    }
    atomic_response_cache_[psn] = original;
    schedule_atomic_ack(psn, original);
    return;
  }
  if (psn_gt(epsn_, psn)) {
    // Retransmitted atomic: replay the cached response, never re-execute.
    ++rnic_->counters().duplicate_request;
    const auto it = atomic_response_cache_.find(psn);
    if (it != atomic_response_cache_.end()) {
      schedule_atomic_ack(psn, it->second);
    }
    return;
  }
  if (nack_armed_) {
    nack_armed_ = false;
    ++rnic_->counters().out_of_sequence;
    schedule_nack();
  }
}

void QueuePair::schedule_atomic_ack(std::uint32_t psn,
                                    std::uint64_t original) {
  const std::uint32_t msn = msn_;
  rnic_->sim()->schedule_after(
      rnic_->profile().ack_generation_delay, [this, psn, msn, original] {
        RocePacketSpec spec = rnic_->packet_spec_for(*this);
        spec.opcode = IbOpcode::kAtomicAck;
        spec.psn = psn;
        spec.aeth = Aeth::ack(msn);
        spec.atomic_ack_eth = AtomicAckEth{original};
        rnic_->enqueue_control(build_roce_packet(spec));
      });
}

// ---------------------------------------------------------------------------
// Control packet generation
// ---------------------------------------------------------------------------

void QueuePair::schedule_ack(std::uint32_t psn) {
  const std::uint32_t msn = msn_;
  rnic_->sim()->schedule_after(
      rnic_->profile().ack_generation_delay, [this, psn, msn] {
        RocePacketSpec spec = rnic_->packet_spec_for(*this);
        spec.opcode = IbOpcode::kAcknowledge;
        spec.psn = psn;
        spec.aeth = Aeth::ack(msn);
        rnic_->enqueue_control(build_roce_packet(spec));
      });
}

void QueuePair::schedule_nack() {
  // The NAK is formed at detection time: it carries the PSN the receiver
  // expected when it saw the out-of-order arrival, even if the gap heals
  // (e.g. a reordered packet lands) during the generation delay.
  const std::uint32_t expected = epsn_;
  const std::uint32_t msn = msn_;
  const Tick detected_at = rnic_->sim()->now();
  rnic_->sim()->schedule_after(
      rnic_->profile().nack_gen_delay_write,
      [this, expected, msn, detected_at] {
        const RnicTelemetryHooks& tele = rnic_->tele();
        const Tick now = rnic_->sim()->now();
        telemetry::inc(tele.nacks_sent);
        telemetry::observe(tele.nack_gen_latency, now - detected_at);
        telemetry::trace_instant(tele.trace, "rnic", "nack_sent", now,
                                 tele.track, expected);
        RocePacketSpec spec = rnic_->packet_spec_for(*this);
        spec.opcode = IbOpcode::kAcknowledge;
        spec.psn = expected;
        spec.aeth = Aeth::nak_sequence_error(msn);
        rnic_->enqueue_control(build_roce_packet(spec));
      });
}

// ---------------------------------------------------------------------------
// Congestion / retransmission timer
// ---------------------------------------------------------------------------

void QueuePair::on_cnp() {
  ++rnic_->counters().rp_cnp_handled;
  rnic_->rp_for(*this).on_cnp();
}

Tick QueuePair::current_rto() const {
  const Tick configured = ib_timeout_to_rto(config_.timeout);
  const bool adaptive = config_.adaptive_retrans &&
                        rnic_->profile().adaptive_retrans_available;
  if (!adaptive) return configured;  // IB-spec behavior: constant RTO
  // §6.3 adaptive retransmission: the first timeouts use an internal
  // estimator far below the configured minimum, roughly doubling, with
  // deterministic per-QP jitter; once the estimate crosses the configured
  // minimum the timer follows it with binary backoff.
  const Tick floor = rnic_->profile().adaptive_retrans_floor;
  const int k = rto_fires_;
  const double jitter = 0.8 + 0.6 * hash01(qpn_, static_cast<std::uint64_t>(k));
  const double est = static_cast<double>(floor) *
                     std::pow(2.0, std::max(0, k - 1)) * jitter;
  if (est < static_cast<double>(configured)) {
    return static_cast<Tick>(est);
  }
  const int crossing = std::max(
      1, static_cast<int>(std::ceil(std::log2(
             static_cast<double>(configured) / static_cast<double>(floor)))));
  const int backoff = std::max(0, k - crossing);
  return configured << std::min(backoff, 8);
}

void QueuePair::arm_rto() {
  const bool outstanding =
      snd_una_ < snd_nxt_ ||
      std::any_of(wqes_.begin(), wqes_.end(), [](const Wqe& w) {
        return !w.completed && w.wr.verb == RdmaVerb::kRead &&
               w.pkts_done < w.n_pkts;
      });
  if (rto_armed_ || !outstanding || error_) return;
  rto_armed_ = true;
  rto_armed_at_ = rnic_->sim()->now();
  rto_event_ = rnic_->sim()->schedule_timer_after(current_rto(), [this] {
    rto_armed_ = false;
    on_rto();
  });
}

void QueuePair::disarm_rto() {
  if (!rto_armed_) return;
  rnic_->sim()->cancel(rto_event_);
  rto_armed_ = false;
}

void QueuePair::on_rto() {
  if (error_) return;
  const bool outstanding_reads =
      std::any_of(wqes_.begin(), wqes_.end(), [](const Wqe& w) {
        return !w.completed && w.wr.verb == RdmaVerb::kRead &&
               w.pkts_done < w.n_pkts;
      });
  if (snd_una_ >= snd_nxt_ && !outstanding_reads) return;

  ++rnic_->counters().local_ack_timeout_err;
  ++retry_count_;
  ++rto_fires_;
  {
    const RnicTelemetryHooks& tele = rnic_->tele();
    const Tick now = rnic_->sim()->now();
    telemetry::inc(tele.timer_fires);
    telemetry::observe(tele.rto_fired_after, now - rto_armed_at_);
    telemetry::trace_instant(tele.trace, "rnic", "rto_fired", now, tele.track,
                             qpn_);
  }

  const bool adaptive = config_.adaptive_retrans &&
                        rnic_->profile().adaptive_retrans_available;
  int retry_limit = config_.retry_cnt;
  if (adaptive) {
    // Observed: retry_cnt=7 yields 8-13 actual retries (§6.3).
    const auto& p = rnic_->profile();
    const int spread =
        p.adaptive_extra_retries_max - p.adaptive_extra_retries_min + 1;
    retry_limit += p.adaptive_extra_retries_min +
                   static_cast<int>(hash01(qpn_, 0xabcdef) * spread);
  }
  if (retry_count_ > retry_limit) {
    enter_error();
    return;
  }

  if (outstanding_reads) {
    issue_read_rerequest(0);
  } else {
    // Go-Back-N: rewind to the oldest unacknowledged packet.
    snd_nxt_ = snd_una_;
    rnic_->mark_tx_work(*this);
    rnic_->notify_tx_ready();
  }
  arm_rto();
}

void QueuePair::enter_error(WcStatus reason) {
  error_ = true;
  disarm_rto();
  bool first = true;
  for (std::size_t i = 0; i < wqes_.size(); ++i) {
    if (wqes_[i].completed) continue;
    complete_wqe(i, first ? reason : WcStatus::kFlushed);
    first = false;
  }
}

void QueuePair::complete_wqe(std::size_t index, WcStatus status) {
  Wqe& wqe = wqes_[index];
  if (wqe.completed) return;
  wqe.completed = true;
  deliver_completion(
      {wqe.wr.wr_id, status, rnic_->sim()->now(), wqe.atomic_original});
}

void QueuePair::deliver_completion(const WorkCompletion& wc) {
  if (completion_cb_) completion_cb_(wc);
}

}  // namespace lumina
