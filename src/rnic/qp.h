// Reliable-Connection queue pair: Go-Back-N transport state machine.
//
// One QueuePair object holds both roles:
//  * requester: posts work requests, packetizes them into a PSN stream,
//    processes ACK/NAK, re-issues read requests on out-of-order read
//    responses ("implied NAK"), and runs the retransmission timer
//    (including NVIDIA's adaptive retransmission mode, §6.3);
//  * responder: tracks the expected PSN, generates ACKs and Go-Back-N
//    NAKs with the device's measured latencies (Fig. 8/9), and streams
//    RDMA Read responses.
//
// Device-specific micro-behaviors (delays, counter bugs, slow paths) come
// from the owning Rnic's DeviceProfile; the protocol logic here is the
// common IBTA-compliant core.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "packet/ib.h"
#include "packet/roce_packet.h"
#include "rnic/verbs.h"
#include "util/time.h"

namespace lumina {

class Rnic;

class QueuePair {
 public:
  /// `slot` is the QP's index in the owning Rnic's QP store.
  QueuePair(Rnic* rnic, std::uint32_t qpn, QpConfig config,
            std::uint32_t slot);

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Transitions to RTR/RTS with the exchanged endpoint metadata.
  void connect(const QpEndpointInfo& local, const QpEndpointInfo& remote);

  void set_completion_callback(CompletionCallback cb) {
    completion_cb_ = std::move(cb);
  }

  /// Posts a work request (requester role). Packets enter the TX stream
  /// immediately; flow control across messages is the caller's job
  /// (tx-depth in the traffic generator).
  void post_send(const WorkRequest& wr);

  /// Pre-posts a receive buffer (responder role, Send/Recv traffic).
  void post_recv(std::uint64_t wr_id);

  // -- identity ------------------------------------------------------------
  std::uint32_t qpn() const { return qpn_; }
  /// Index in the owning Rnic's QP store (its creation order), where the
  /// egress pump keeps this QP's pacing gate and traffic-class position.
  std::uint32_t slot() const { return slot_; }
  const QpEndpointInfo& local() const { return local_; }
  const QpEndpointInfo& remote() const { return remote_; }
  const QpConfig& config() const { return config_; }
  bool in_error() const { return error_; }
  /// §6.2.3: whether the APM state for this QP has been reconciled (set
  /// after the first message is received in order).
  bool apm_reconciled() const { return apm_reconciled_; }

  // -- RX (called by the owning Rnic after pipeline delays) ------------------
  void on_request_packet(const RoceView& view);        // responder role
  void on_ack_packet(const RoceView& view);            // requester role
  void on_read_response_packet(const RoceView& view);  // requester role
  void on_atomic_ack(const RoceView& view);            // requester role
  void on_cnp();                                       // reaction point

  /// Responder-side view of the 64-bit word at `vaddr` (atomics target
  /// memory the simulation models as a sparse map). Exposed for tests.
  std::uint64_t atomic_memory(std::uint64_t vaddr) const {
    const auto it = atomic_memory_.find(vaddr);
    return it == atomic_memory_.end() ? 0 : it->second;
  }
  void set_atomic_memory(std::uint64_t vaddr, std::uint64_t value) {
    atomic_memory_[vaddr] = value;
  }

  // -- TX (called by the owning Rnic's egress engine) ------------------------
  /// Earliest time this QP has a packet ready to hand to the scheduler;
  /// Tick max when it has no TX work at all. Does not include DCQCN
  /// pacing, which the Rnic applies.
  Tick tx_ready_time() const;
  bool has_tx_work() const {
    return tx_ready_time() != std::numeric_limits<Tick>::max();
  }
  /// Size of the next packet to send (valid when has_tx_work()).
  std::size_t next_packet_bytes() const;
  /// Builds and consumes the next packet. Returns nullopt if nothing is
  /// ready at `now`.
  std::optional<Packet> build_next_packet(Tick now);

 private:
  // One packet of the requester's PSN stream (data packet or read request).
  struct TxDesc {
    std::uint32_t psn = 0;
    std::uint32_t psn_span = 1;  ///< Read requests span their response PSNs.
    IbOpcode opcode = IbOpcode::kSendOnly;
    std::uint32_t payload_len = 0;
    bool ack_req = false;
    std::optional<Reth> reth;
    std::optional<AtomicEth> atomic_eth;
    std::size_t wqe_index = 0;
    int sent_count = 0;
  };

  // One packet of the responder's read-response stream.
  struct RespDesc {
    std::uint32_t psn = 0;
    IbOpcode opcode = IbOpcode::kReadRespOnly;
    std::uint32_t payload_len = 0;
  };

  struct Wqe {
    WorkRequest wr;
    std::uint32_t start_psn = 0;
    std::uint32_t n_pkts = 0;       ///< Data packets (or read responses).
    std::uint32_t pkts_done = 0;    ///< Read responses received in order.
    bool completed = false;
    Tick posted_at = 0;
    std::uint64_t atomic_original = 0;  ///< Filled by the AtomicAck.
  };

  // ---- requester internals ----
  void packetize(Wqe& wqe);
  void complete_wqe(std::size_t index, WcStatus status);
  void deliver_completion(const WorkCompletion& wc);
  void advance_snd_una(std::uint32_t acked_psn);
  void start_rewind(std::uint32_t psn, Tick extra_hold);
  void issue_read_rerequest(Tick hold);
  std::optional<std::uint32_t> expected_read_resp_psn() const;
  void arm_rto();
  void disarm_rto();
  void on_rto();
  Tick current_rto() const;
  void enter_error(WcStatus reason = WcStatus::kRetryExceeded);
  std::size_t desc_index_for_psn(std::uint32_t psn) const;

  // ---- responder internals ----
  void responder_handle_data(const RoceView& view);
  void responder_handle_read_request(const RoceView& view);
  void responder_handle_atomic(const RoceView& view);
  void schedule_atomic_ack(std::uint32_t psn, std::uint64_t original);
  bool validate_remote_access(std::uint64_t vaddr, std::uint64_t len,
                              std::uint32_t rkey) const;
  void schedule_access_nak(std::uint32_t psn);
  void schedule_ack(std::uint32_t psn);
  void schedule_nack();
  void append_read_response_descs(std::uint32_t psn, std::uint32_t len);

  Rnic* rnic_;
  std::uint32_t qpn_;
  std::uint32_t slot_;
  QpConfig config_;
  QpEndpointInfo local_;
  QpEndpointInfo remote_;
  CompletionCallback completion_cb_;
  bool connected_ = false;
  bool error_ = false;

  // ---- requester state ----
  std::vector<Wqe> wqes_;
  std::vector<TxDesc> tx_descs_;
  std::size_t snd_nxt_ = 0;      ///< Next TX desc index to transmit.
  std::size_t snd_una_ = 0;      ///< First unacknowledged desc index.
  std::uint32_t next_psn_ = 0;   ///< Next fresh PSN to assign.
  Tick tx_hold_until_ = 0;       ///< NACK-reaction / processing hold.
  int retry_count_ = 0;
  int rnr_retries_ = 0;
  std::uint64_t rto_event_ = 0;
  bool rto_armed_ = false;
  int rto_fires_ = 0;            ///< Consecutive timeouts (adaptive seq).
  Tick rto_armed_at_ = 0;        ///< Telemetry: arm time of the live RTO.

  // Read-specific requester state.
  std::uint32_t read_last_rx_psn_ = 0;
  bool read_nack_armed_ = true;
  bool read_episode_active_ = false;  ///< OOO slow-path episode running.

  // ---- responder state ----
  std::uint32_t epsn_ = 0;  ///< Expected PSN of the next request packet.
  std::uint32_t msn_ = 0;
  int pkts_since_ack_ = 0;  ///< Coalesced-ACK counter.
  std::uint32_t rsp_last_rx_psn_ = 0;
  bool nack_armed_ = true;
  bool rnr_pending_ = false;  ///< Responder is shedding a Send message.
  bool apm_reconciled_ = false;
  std::uint32_t first_msg_end_psn_ = 0;
  bool first_msg_seen_ = false;
  std::deque<std::uint64_t> recv_queue_;
  std::map<std::uint64_t, std::uint64_t> atomic_memory_;
  /// Atomic responses are cached per PSN so retransmitted requests replay
  /// the original result instead of re-executing (IBTA requirement).
  std::unordered_map<std::uint32_t, std::uint64_t> atomic_response_cache_;
  std::vector<RespDesc> resp_descs_;
  std::size_t resp_next_ = 0;
  std::size_t resp_highwater_ = 0;  ///< One past the furthest desc sent.
  Tick resp_hold_until_ = 0;
  std::uint32_t resp_base_psn_ = 0;  ///< PSN of resp_descs_[0].
};

}  // namespace lumina
