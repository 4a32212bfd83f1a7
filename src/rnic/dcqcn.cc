#include "rnic/dcqcn.h"

#include <algorithm>

namespace lumina {

DcqcnRp::DcqcnRp(Simulator* sim, const DcqcnParams& params, double link_gbps)
    : sim_(sim),
      params_(params),
      link_gbps_(link_gbps),
      current_rate_(link_gbps),
      target_rate_(link_gbps) {}

DcqcnRp::~DcqcnRp() { disarm_timers(); }

void DcqcnRp::on_cnp() {
  if (!enabled_) return;
  ++cnps_;
  // Multiplicative decrease: Rt <- Rc, Rc <- Rc * (1 - alpha/2); alpha
  // moves toward 1.
  target_rate_ = current_rate_;
  current_rate_ *= 1.0 - alpha_ / 2.0;
  current_rate_ = std::max(current_rate_, params_.min_rate_gbps);
  alpha_ = (1.0 - params_.alpha_g) * alpha_ + params_.alpha_g;
  timer_stage_ = 0;
  byte_stage_ = 0;
  bytes_since_stage_ = 0;
  arm_timers();
}

void DcqcnRp::on_packet_sent(std::size_t bytes) {
  if (!enabled_ || fully_recovered()) return;
  bytes_since_stage_ += bytes;
  if (bytes_since_stage_ >= params_.byte_counter_threshold) {
    bytes_since_stage_ = 0;
    ++byte_stage_;
    increase_stage();
  }
}

void DcqcnRp::arm_timers() {
  if (timers_armed_) {
    // Restart both timers relative to this CNP.
    sim_->cancel(alpha_timer_id_);
    sim_->cancel(rate_timer_id_);
  }
  timers_armed_ = true;
  alpha_timer_id_ =
      sim_->schedule_after(params_.alpha_timer, [this] { on_alpha_timer(); });
  rate_timer_id_ = sim_->schedule_after(params_.rate_increase_timer,
                                        [this] { on_rate_timer(); });
}

void DcqcnRp::disarm_timers() {
  if (!timers_armed_) return;
  sim_->cancel(alpha_timer_id_);
  sim_->cancel(rate_timer_id_);
  timers_armed_ = false;
}

void DcqcnRp::on_alpha_timer() {
  alpha_ *= 1.0 - params_.alpha_g;
  if (!fully_recovered() || alpha_ > 1e-3) {
    alpha_timer_id_ = sim_->schedule_after(params_.alpha_timer,
                                           [this] { on_alpha_timer(); });
  } else {
    timers_armed_ = false;
  }
}

void DcqcnRp::on_rate_timer() {
  ++timer_stage_;
  increase_stage();
  if (!fully_recovered()) {
    rate_timer_id_ = sim_->schedule_after(params_.rate_increase_timer,
                                          [this] { on_rate_timer(); });
  }
}

void DcqcnRp::increase_stage() {
  const int stage = std::max(timer_stage_, byte_stage_);
  if (stage > params_.fast_recovery_stages) {
    // Additive (or hyper, when both paths agree) increase of the target.
    const bool hyper = std::min(timer_stage_, byte_stage_) >
                       params_.fast_recovery_stages;
    target_rate_ += hyper ? params_.rate_hai_gbps : params_.rate_ai_gbps;
    target_rate_ = std::min(target_rate_, link_gbps_);
  }
  // Fast recovery: Rc approaches Rt.
  current_rate_ = (target_rate_ + current_rate_) / 2.0;
  current_rate_ = std::min(current_rate_, link_gbps_);
}

bool CnpRateLimiter::allow(Ipv4Address remote_ip, std::uint32_t qpn, Tick now,
                           Tick min_interval) {
  const std::uint64_t key = key_for(remote_ip, qpn);
  const auto it = last_sent_.find(key);
  if (it != last_sent_.end() && now - it->second < min_interval) {
    return false;
  }
  last_sent_[key] = now;
  return true;
}

std::uint64_t CnpRateLimiter::key_for(Ipv4Address remote_ip,
                                      std::uint32_t qpn) const {
  switch (mode_) {
    case CnpRateLimitMode::kPerDestIp:
      return remote_ip.value;
    case CnpRateLimitMode::kPerQp:
      return 0x100000000ULL | qpn;
    case CnpRateLimitMode::kPerPort:
      return 0;
  }
  return 0;
}

}  // namespace lumina
