#include "rnic/device_profile.h"

namespace lumina {

std::string to_string(CnpRateLimitMode mode) {
  switch (mode) {
    case CnpRateLimitMode::kPerDestIp: return "per-dest-ip";
    case CnpRateLimitMode::kPerQp: return "per-qp";
    case CnpRateLimitMode::kPerPort: return "per-port";
  }
  return "?";
}

namespace {

DeviceProfile make_cx4lx() {
  DeviceProfile p;
  p.type = NicType::kCx4Lx;
  p.name = "NVIDIA ConnectX-4 Lx 40GbE";
  p.link_gbps = 40.0;
  // Fig. 8/9: fast NACK generation for Write, very slow for Read; NACK
  // reaction in the hundreds of microseconds either way (the paper notes
  // the overall retransmission delay is ~200 us ~ 100 base RTTs).
  p.nack_gen_delay_write = 1500;
  p.nack_gen_delay_read = 150 * kMicrosecond;
  p.nack_react_delay_write = 200 * kMicrosecond;
  p.nack_react_delay_read = 150 * kMicrosecond;
  p.adaptive_retrans_available = true;
  p.cnp_mode = CnpRateLimitMode::kPerDestIp;
  p.cnp_on_out_of_order = true;
  // §6.2.2 noisy neighbor: >=12 concurrent read-loss slow paths wedge the
  // RX pipeline; §6.2.4 implied_nak_seq_err stuck.
  p.bug_noisy_neighbor = true;
  p.noisy_neighbor_capacity = 11;
  p.noisy_neighbor_stall = 2 * kSecond;
  p.bug_implied_nak_counter_stuck = true;
  return p;
}

DeviceProfile make_cx5() {
  DeviceProfile p;
  p.type = NicType::kCx5;
  p.name = "NVIDIA ConnectX-5 100GbE";
  p.link_gbps = 100.0;
  p.nack_gen_delay_write = 2 * kMicrosecond;
  p.nack_gen_delay_read = 2 * kMicrosecond;
  p.nack_react_delay_write = 4 * kMicrosecond;
  p.nack_react_delay_read = 2 * kMicrosecond;
  p.adaptive_retrans_available = true;
  p.cnp_mode = CnpRateLimitMode::kPerPort;
  p.cnp_on_out_of_order = true;
  // §6.2.3: APM reconciliation slow path on MigReq=0 senders (E810).
  p.apm_slow_path_on_mig_req0 = true;
  p.apm_slow_path_service = 200;
  p.apm_slow_path_queue_pkts = 512;
  return p;
}

DeviceProfile make_cx6dx() {
  DeviceProfile p;
  p.type = NicType::kCx6Dx;
  p.name = "NVIDIA ConnectX-6 Dx 100GbE";
  p.link_gbps = 100.0;
  p.nack_gen_delay_write = 2 * kMicrosecond;
  p.nack_gen_delay_read = 2 * kMicrosecond;
  p.nack_react_delay_write = 3 * kMicrosecond;
  p.nack_react_delay_read = 2500;
  p.adaptive_retrans_available = true;
  p.cnp_mode = CnpRateLimitMode::kPerPort;
  p.cnp_on_out_of_order = true;
  // §6.2.1: ETS queues strictly limited to their guaranteed bandwidth.
  p.bug_nonwork_conserving_ets = true;
  return p;
}

DeviceProfile make_e810() {
  DeviceProfile p;
  p.type = NicType::kE810;
  p.name = "Intel E810 100GbE";
  p.link_gbps = 100.0;
  // Fig. 8: Write NACK generation ~10 us; Read a remarkable ~83 ms.
  p.nack_gen_delay_write = 10 * kMicrosecond;
  p.nack_gen_delay_read = 83 * kMillisecond;
  p.nack_react_delay_write = 60 * kMicrosecond;
  p.nack_react_delay_read = 30 * kMicrosecond;
  p.adaptive_retrans_available = false;
  p.cnp_mode = CnpRateLimitMode::kPerQp;
  // §6.3: hidden ~50 us minimum CNP generation interval, not configurable.
  p.default_min_time_between_cnps = 50 * kMicrosecond;
  p.cnp_interval_configurable = false;
  // §6.2.3 / §6.2.4: MigReq sent as 0; cnpSent counter stuck.
  p.mig_req_default = false;
  p.bug_cnp_sent_counter_stuck = true;
  return p;
}

DeviceProfile make_soft_roce() {
  DeviceProfile p;
  p.type = NicType::kSoftRoce;
  p.name = "Soft-RoCE (rxe-like software stack) 25GbE";
  p.link_gbps = 25.0;
  // Everything runs on host CPUs: pipeline stages cost softirq-scale
  // microseconds instead of the hardware profiles' hundreds of ns.
  p.rx_pipeline_delay = 4 * kMicrosecond;
  p.ack_generation_delay = 6 * kMicrosecond;
  p.nack_gen_delay_write = 10 * kMicrosecond;
  p.nack_gen_delay_read = 10 * kMicrosecond;
  p.nack_react_delay_write = 15 * kMicrosecond;
  p.nack_react_delay_read = 15 * kMicrosecond;
  // The kernel stack keeps plain Go-Back-N with the configured timeout and
  // no DCQCN offload: CNPs are emitted from the slow path, one rate
  // limiter per QP, at a conservative interval.
  p.adaptive_retrans_available = false;
  p.cnp_mode = CnpRateLimitMode::kPerQp;
  p.default_min_time_between_cnps = 20 * kMicrosecond;
  // No hardware offload means none of the §6.2 offload bugs: ETS is
  // work-conserving, there is no APM reconciliation slow path (MigReq is
  // ignored entirely), and all counters increment. The software stack is
  // the tolerant end of the interop matrix (bench/sec623_interop).
  p.mig_req_default = true;
  return p;
}

}  // namespace

const DeviceProfile& DeviceProfile::get(NicType type) {
  static const DeviceProfile cx4 = make_cx4lx();
  static const DeviceProfile cx5 = make_cx5();
  static const DeviceProfile cx6 = make_cx6dx();
  static const DeviceProfile e810 = make_e810();
  static const DeviceProfile soft = make_soft_roce();
  switch (type) {
    case NicType::kCx4Lx: return cx4;
    case NicType::kCx5: return cx5;
    case NicType::kCx6Dx: return cx6;
    case NicType::kE810: return e810;
    case NicType::kSoftRoce: return soft;
  }
  return cx5;
}

}  // namespace lumina
