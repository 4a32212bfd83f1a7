// Behavioral device profiles for the four RNICs the paper tests (§5, §6)
// plus a synthetic soft-RoCE software stack (the tolerant interop
// baseline; see make_soft_roce in device_profile.cc).
//
// A DeviceProfile captures the *measured* micro-behaviors and the
// vendor-confirmed bugs that Lumina uncovered, as model parameters. The
// RNIC state machines in rnic.cc are common; profiles make a CX4 Lx take
// ~200 us to react to a NACK while a CX5 takes ~4 us, make the CX6 Dx ETS
// scheduler non-work-conserving, etc. EXPERIMENTS.md maps each field back
// to the paper section it reproduces.
#pragma once

#include <cstdint>
#include <string>

#include "config/test_config.h"
#include "util/time.h"

namespace lumina {

/// §6.3 "Different CNP rate limiting modes".
enum class CnpRateLimitMode { kPerDestIp, kPerQp, kPerPort };

std::string to_string(CnpRateLimitMode mode);

struct DcqcnParams {
  double alpha_g = 1.0 / 8.0;         ///< EWMA gain for alpha updates.
  Tick alpha_timer = 20 * kMicrosecond;
  Tick rate_increase_timer = 20 * kMicrosecond;
  double rate_ai_gbps = 10.0;         ///< Additive increase step.
  double rate_hai_gbps = 25.0;        ///< Hyper increase step.
  int fast_recovery_stages = 1;
  double min_rate_gbps = 1.0;
  std::uint64_t byte_counter_threshold = 1 << 20;
};

struct DeviceProfile {
  NicType type = NicType::kCx5;
  std::string name;
  double link_gbps = 100.0;

  // -- generic pipeline latencies -----------------------------------------
  Tick rx_pipeline_delay = 300;   ///< Arrival to transport-logic handoff.
  Tick ack_generation_delay = 900;  ///< In-order data to ACK on the wire.

  // -- retransmission micro-behaviors (Fig. 8 / Fig. 9) --------------------
  Tick nack_gen_delay_write = 2 * kMicrosecond;
  Tick nack_gen_delay_read = 2 * kMicrosecond;
  Tick nack_react_delay_write = 4 * kMicrosecond;
  Tick nack_react_delay_read = 2 * kMicrosecond;

  // -- adaptive retransmission (§6.3) --------------------------------------
  bool adaptive_retrans_available = false;
  /// Floor of the adaptive timeout estimator; the observed CX6 Dx sequence
  /// starts around 4–6 ms regardless of the configured minimum.
  Tick adaptive_retrans_floor = 4 * kMillisecond;
  /// Extra retries beyond the configured retry_cnt (observed 8–13 actual
  /// retries for retry_cnt=7); the exact count is a deterministic function
  /// of the QP number.
  int adaptive_extra_retries_min = 1;
  int adaptive_extra_retries_max = 6;

  // -- DCQCN / CNP behavior (§6.3) -----------------------------------------
  CnpRateLimitMode cnp_mode = CnpRateLimitMode::kPerPort;
  /// Device default for min_time_between_cnps when the user does not set
  /// it. E810: hidden, undocumented ~50 us; NVIDIA: documented 4 us.
  Tick default_min_time_between_cnps = 4 * kMicrosecond;
  /// False on E810: the interval is hidden and cannot be configured.
  bool cnp_interval_configurable = true;
  /// NVIDIA lossy-RoCE extension: on out-of-order arrival the NP emits a
  /// CNP along with the NACK.
  bool cnp_on_out_of_order = false;
  DcqcnParams dcqcn;

  // -- bugs and hidden behaviors (§6.2) -------------------------------------
  /// §6.2.1: ETS queues hard-limited to their guaranteed bandwidth.
  bool bug_nonwork_conserving_ets = false;
  /// §6.2.2: concurrent read-drop slow paths stall the whole RX pipeline.
  bool bug_noisy_neighbor = false;
  int noisy_neighbor_capacity = 11;   ///< Concurrent slow-path episodes.
  Tick noisy_neighbor_stall = 2 * kSecond;  ///< Pipeline wedge duration.
  /// §6.2.3: MigReq value this NIC sets on generated packets.
  bool mig_req_default = true;
  /// §6.2.3: receiving MigReq=0 packets takes an APM reconciliation slow
  /// path on unreconciled QPs.
  bool apm_slow_path_on_mig_req0 = false;
  Tick apm_slow_path_service = 120;        ///< Per-packet slow-path cost.
  std::size_t apm_slow_path_queue_pkts = 256;
  /// §6.2.4: E810's cnpSent counter never increments.
  bool bug_cnp_sent_counter_stuck = false;
  /// §6.2.4: CX4 Lx's implied_nak_seq_err never increments.
  bool bug_implied_nak_counter_stuck = false;

  /// Canonical profile for each NIC model.
  static const DeviceProfile& get(NicType type);
};

}  // namespace lumina
