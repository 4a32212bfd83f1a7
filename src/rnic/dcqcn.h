// DCQCN congestion control (Zhu et al., SIGCOMM 2015), as implemented on
// the RNIC data path.
//
// Reaction point (RP): per-QP rate state updated on CNP arrival (multiplic-
// ative decrease via alpha) and recovered by the alpha timer, the rate
// timer and the byte counter (fast recovery -> additive -> hyper increase).
//
// Notification point (NP): CNP generation with a minimum inter-CNP interval
// whose *scope* is device-specific (§6.3): CX4 Lx limits per destination
// IP, CX5/CX6 Dx per NIC port, and E810 per QP with a hidden ~50 us
// interval.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "rnic/device_profile.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace lumina {

/// Per-QP reaction-point state machine.
class DcqcnRp {
 public:
  DcqcnRp(Simulator* sim, const DcqcnParams& params, double link_gbps);
  ~DcqcnRp();

  DcqcnRp(const DcqcnRp&) = delete;
  DcqcnRp& operator=(const DcqcnRp&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Congestion notification received.
  void on_cnp();

  /// Charges `bytes` toward the byte-counter increase path.
  void on_packet_sent(std::size_t bytes);

  /// Current allowed sending rate.
  double rate_gbps() const { return enabled_ ? current_rate_ : link_gbps_; }

  double alpha() const { return alpha_; }
  std::uint64_t cnps_processed() const { return cnps_; }

 private:
  void arm_timers();
  void disarm_timers();
  void on_alpha_timer();
  void on_rate_timer();
  void increase_stage();
  bool fully_recovered() const { return current_rate_ >= link_gbps_; }

  Simulator* sim_;
  DcqcnParams params_;
  double link_gbps_;
  bool enabled_ = true;

  double current_rate_ = 0;  // Rc
  double target_rate_ = 0;   // Rt
  double alpha_ = 1.0;
  int timer_stage_ = 0;      // rate-timer successes since last CNP
  int byte_stage_ = 0;       // byte-counter successes since last CNP
  std::uint64_t bytes_since_stage_ = 0;
  std::uint64_t cnps_ = 0;

  bool timers_armed_ = false;
  std::uint64_t alpha_timer_id_ = 0;
  std::uint64_t rate_timer_id_ = 0;
};

/// NP-side CNP pacing, keyed by the device's rate-limit scope.
class CnpRateLimiter {
 public:
  explicit CnpRateLimiter(CnpRateLimitMode mode) : mode_(mode) {}

  /// Returns true (and records the emission) if a CNP may be sent now for
  /// congestion observed on (`remote_ip`, local `qpn`).
  bool allow(Ipv4Address remote_ip, std::uint32_t qpn, Tick now,
             Tick min_interval);

 private:
  std::uint64_t key_for(Ipv4Address remote_ip, std::uint32_t qpn) const;

  CnpRateLimitMode mode_;
  std::unordered_map<std::uint64_t, Tick> last_sent_;
};

}  // namespace lumina
