// The RNIC model: RX path, egress engine (ETS + DCQCN pacing), QP
// registry, DCQCN notification point, and the device-specific slow paths
// that reproduce the paper's findings (noisy-neighbor stall §6.2.2, APM
// MigReq slow path §6.2.3, counter bugs §6.2.4).
//
// RX (handle_packet, one frame per call): PFC pause handling -> rx
// accounting and the noisy-neighbor stall window -> RoCE decode -> iCRC
// check -> dispatch (QP lookup, APM slow path, DCQCN notification point,
// and the delayed hand-off to the QP state machine).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/node.h"
#include "net/packet_fifo.h"
#include "packet/pfc.h"
#include "rnic/counters.h"
#include "rnic/dcqcn.h"
#include "rnic/device_profile.h"
#include "rnic/ets.h"
#include "rnic/qp.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace lumina {

/// Hot-path telemetry handles resolved at attach time (null when no
/// telemetry is attached). Metric names carry the NIC's role:
/// rnic.<requester|responder>.<metric> (docs/telemetry.md).
struct RnicTelemetryHooks {
  telemetry::TraceSink* trace = nullptr;
  telemetry::Counter* nacks_sent = nullptr;
  telemetry::Counter* cnps_sent = nullptr;
  telemetry::Counter* timer_fires = nullptr;
  telemetry::Counter* retransmits = nullptr;
  telemetry::Histogram* nack_gen_latency = nullptr;  ///< detect -> NAK out.
  telemetry::Histogram* cnp_interval = nullptr;      ///< gap between CNPs.
  telemetry::Histogram* rto_fired_after = nullptr;   ///< arm -> expiry.
  std::uint32_t track = telemetry::kTrackRequester;
};

/// 802.1Qbb pause statistics. Kept apart from RnicCounters so the
/// counters.txt artifact keeps its exact shape; the orchestrator scrapes
/// these into telemetry only when nonzero (pause frames exist only in runs
/// that configure the pause-storm event).
struct RnicPauseStats {
  std::uint64_t pause_frames_rx = 0;
  std::uint64_t pause_resumes_rx = 0;
  /// Total egress pause time accumulated across priorities. A pause cut
  /// short by an explicit resume is credited back.
  std::uint64_t paused_ns = 0;
};

class Rnic : public Node {
 public:
  /// `telemetry_track` is the trace track this NIC's events land on —
  /// assigned by the Orchestrator (telemetry::nic_track(host_index)); the
  /// default suits single-NIC unit tests.
  Rnic(Simulator* sim, std::string name, const DeviceProfile& profile,
       RoceParameters roce, MacAddress mac,
       std::uint32_t telemetry_track = telemetry::kTrackRequester);
  ~Rnic() override;

  // -- wiring ----------------------------------------------------------------
  Port& port() { return *port_; }
  MacAddress mac() const { return mac_; }

  // -- verbs-ish control path -------------------------------------------------
  /// Creates an RC QP. The returned pointer remains owned by the Rnic and
  /// stays valid for the Rnic's lifetime; qp->slot() is its creation index.
  QueuePair* create_qp(const QpConfig& config);
  QueuePair* find_qp(std::uint32_t qpn);
  std::size_t qp_count() const { return qps_.size(); }

  /// Configures ETS traffic-class weights. QPs map to classes via
  /// QpConfig::traffic_class. With the CX6 Dx profile and more than one
  /// class this scheduler is non-work-conserving (§6.2.1).
  void configure_ets(const std::vector<int>& weights);

  const DeviceProfile& profile() const { return profile_; }
  const RoceParameters& roce() const { return roce_; }
  RnicCounters& counters() { return counters_; }
  const RnicCounters& counters() const { return counters_; }
  const RnicPauseStats& pause_stats() const { return pause_stats_; }
  Simulator* sim() { return sim_; }

  /// Resolved minimum CNP interval: the configured value when the device
  /// honors configuration, otherwise the device default — E810's interval
  /// is hidden and ignores configuration (§6.3).
  Tick min_cnp_interval() const;

  // -- services used by QueuePair ---------------------------------------------
  /// Queues a control packet (ACK/NAK/CNP) with strict priority.
  void enqueue_control(Packet pkt);
  /// Kicks the egress engine (new work / hold expired).
  void notify_tx_ready();
  /// Records that `qp` may have TX work: inserts it into its traffic
  /// class's work set so pump() scans it. Called by the QP at every
  /// transition that creates (or re-creates) transmittable work; idle QPs
  /// drop out of the set lazily when a scan finds them exhausted.
  void mark_tx_work(QueuePair& qp);
  /// Requester read-OOO slow-path episode accounting (§6.2.2).
  void read_slow_path_begin();
  void read_slow_path_end();
  /// NVIDIA lossy-RoCE extension: the NP emits a CNP alongside the NACK
  /// when it detects out-of-order arrival (§4 "Congestion notification").
  void notify_out_of_order(QueuePair& qp);
  /// DCQCN RP rate state of `qp`, which this NIC created.
  DcqcnRp& rp_for(const QueuePair& qp);
  /// Builds the L2/L3/UDP part of a packet spec for a QP's wire peers.
  RocePacketSpec packet_spec_for(const QueuePair& qp) const;

  /// Registers the run's telemetry context and resolves metric handles.
  /// Pass nullptr to detach.
  void attach_telemetry(telemetry::Telemetry* telemetry);
  const RnicTelemetryHooks& tele() const { return tele_; }

  // -- Node -------------------------------------------------------------------
  // handle_packet runs the RX steps listed at the top of this file on each
  // delivered frame, in order, and returns once one of them has dropped or
  // dispatched it.
  void handle_packet(int in_port, Packet pkt) override;
  /// The host name the testbed gave this NIC (metric prefixes, QPN seed).
  std::string name() const { return name_; }

 private:
  // One QP, its DCQCN reaction point, and the egress pump's state for it.
  // A QP's slot is its index in qps_, i.e. its creation order.
  struct QpSlot {
    QpSlot(Rnic* nic, std::uint32_t slot, std::uint32_t qpn,
           const QpConfig& config)
        : qp(nic, qpn, config, slot),
          rp(nic->sim_, nic->profile_.dcqcn, nic->profile_.link_gbps) {
      rp.set_enabled(nic->roce_.dcqcn_rp_enable);
    }
    QueuePair qp;
    DcqcnRp rp;
    Tick pacing_next = 0;      ///< DCQCN pacing: earliest next TX time.
    std::uint32_t tc = 0;      ///< ETS traffic class.
    std::uint32_t tc_pos = 0;  ///< Position in the class's member table.
  };

  // Per traffic class: the member table of QP slots in creation order, the
  // work set of member positions that may have TX work, and the
  // round-robin cursor.
  struct TcState {
    std::vector<std::uint32_t> members;
    std::set<std::uint32_t> work;
    std::size_t cursor = 0;
  };

  void pump();
  void schedule_pump(Tick when);
  void maybe_send_cnp(QueuePair& qp);
  void on_pause_frame(const PfcFrame& frame);
  /// RX dispatch of a frame that passed the iCRC check. The QP callback
  /// captures a boxed copy of `view`, not the frame bytes.
  void dispatch(const RoceView& view, Tick now);

  Simulator* sim_;
  std::string name_;
  DeviceProfile profile_;
  RoceParameters roce_;
  MacAddress mac_;
  std::uint32_t telemetry_track_;
  std::unique_ptr<Port> port_;
  RnicCounters counters_;

  // emplace_back never moves existing elements, so QueuePair pointers stay
  // valid as QPs are added.
  std::deque<QpSlot> qps_;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_by_qpn_;
  std::uint32_t next_qpn_;

  // Egress engine.
  PacketFifo control_queue_;
  EtsScheduler ets_;
  std::vector<TcState> tcs_;
  // pump()'s per-class picks, reused across calls and sized to tcs_. Safe
  // because pump() never re-enters itself: build_next_packet reaches only
  // arm_rto and telemetry, and Port::send onto the idle port pump()
  // requires never fires the drained callback.
  std::vector<bool> pump_active_;
  std::vector<std::size_t> pump_bytes_;
  std::vector<QpSlot*> pump_chosen_;
  std::vector<std::uint32_t> pump_chosen_pos_;
  Tick pump_scheduled_for_ = -1;

  // Recycled RoceView boxes for the RX dispatch callback: the view is too
  // large to capture inline, so it rides in a pooled heap box instead of a
  // fresh allocation per received packet.
  std::vector<std::unique_ptr<RoceView>> view_pool_;

  // NP state.
  CnpRateLimiter cnp_limiter_;

  RnicTelemetryHooks tele_;
  Tick last_cnp_sent_at_ = -1;

  // 802.1Qbb reaction point: per-priority egress pause deadlines (traffic
  // class i honors priority i). Control packets (ACK/NAK/CNP) ride the
  // strict-priority control queue, which pause storms do not gate.
  std::array<Tick, 8> pause_until_{};
  RnicPauseStats pause_stats_;

  // §6.2.2 noisy neighbor: RX pipeline stall.
  int active_read_episodes_ = 0;
  Tick rx_stalled_until_ = 0;

  // §6.2.3 APM slow path: shared service queue for MigReq=0 packets. Once
  // the queue overflows it sheds load until it drains below a low
  // watermark, so a burst's tail is dropped contiguously — which is why
  // the victims recover by timeout rather than NACK (the responder never
  // sees the out-of-order arrival).
  Tick apm_busy_until_ = 0;
  bool apm_shedding_ = false;
};

}  // namespace lumina
