#include "suite/bug_detectors.h"

#include <cstdio>

#include "analyzers/cnp_analyzer.h"
#include "analyzers/counter_analyzer.h"
#include "orchestrator/orchestrator.h"

namespace lumina {
namespace {

TestConfig base(NicType nic) {
  TestConfig cfg;
  cfg.requester().nic_type = nic;
  cfg.responder().nic_type = nic;
  return cfg;
}

std::string fmt_evidence(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

// §6.2.1: two ETS queues, ECN-throttle QP0; the device is affected when
// QP1 cannot exceed its guaranteed 50% share.
DetectionResult detect_ets(NicType nic) {
  TestConfig cfg = base(nic);
  cfg.requester().roce.min_time_between_cnps = 4 * kMicrosecond;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 8;
  cfg.traffic.message_size = 1024 * 1024;
  cfg.traffic.tx_depth = 2;
  cfg.ets.tc_of_qp = {0, 1};
  cfg.ets.tc_weights = {50, 50};
  for (int psn = 50; psn <= 8192; psn += 50) {
    cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
        1, static_cast<std::uint32_t>(psn), EventType::kEcn, 1});
  }
  Orchestrator::Options options;
  options.num_dumpers = 4;
  options.dumper_options.per_packet_service = 60;
  Orchestrator orch(cfg, options);
  const TestResult& result = orch.run();
  const double half_rate = DeviceProfile::get(nic).link_gbps / 2.0;
  const double qp1 = result.flows[1].goodput_gbps();
  DetectionResult out{KnownIssue::kNonWorkConservingEts, nic,
                      qp1 < half_rate * 1.1, ""};
  out.evidence = fmt_evidence(
      "QP1 goodput %.1f Gbps vs %.1f Gbps guaranteed share", qp1, half_rate);
  return out;
}

// §6.2.2: 36 Read flows with drops on the first 16; affected when innocent
// flows' MCT explodes.
DetectionResult detect_noisy_neighbor(NicType nic) {
  TestConfig cfg = base(nic);
  cfg.traffic.verb = RdmaVerb::kRead;
  cfg.traffic.num_connections = 36;
  cfg.traffic.num_msgs_per_qp = 4;
  cfg.traffic.message_size = 20 * 1024;
  for (int i = 0; i < 16; ++i) {
    cfg.traffic.data_pkt_events.push_back(
        DataPacketEvent{i + 1, 5, EventType::kDrop, 1});
  }
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  double innocent_sum = 0;
  int n = 0;
  for (std::size_t i = 16; i < result.flows.size(); ++i) {
    innocent_sum += result.flows[i].avg_mct_us();
    ++n;
  }
  const double innocent_us = innocent_sum / n;
  DetectionResult out{KnownIssue::kNoisyNeighbor, nic, innocent_us > 10'000,
                      ""};
  out.evidence = fmt_evidence(
      "innocent-flow avg MCT %.0f us, requester discards %.0f", innocent_us,
      static_cast<double>(result.requester_counters().rx_discards_phy));
  return out;
}

// §6.2.3: this NIC sending Send traffic to a CX5 with 16 concurrent QPs;
// affected when the CX5 responder discards packets.
DetectionResult detect_interop(NicType nic) {
  TestConfig cfg = base(nic);
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.verb = RdmaVerb::kSendRecv;
  cfg.traffic.num_connections = 16;
  cfg.traffic.num_msgs_per_qp = 3;
  cfg.traffic.message_size = 100 * 1024;
  cfg.traffic.min_retransmit_timeout = 12;
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  DetectionResult out{KnownIssue::kInteropMigReq, nic,
                      result.responder_counters().rx_discards_phy > 0, ""};
  // The format consumes only the first value; the second is unused.
  out.evidence = fmt_evidence("CX5 responder rx_discards_phy = %.0f",
                              static_cast<double>(
                                  result.responder_counters().rx_discards_phy),
                              0.0);
  return out;
}

// §6.2.4: ECN and Read-drop probes cross-checked by the counter analyzer.
DetectionResult detect_counters(NicType nic) {
  bool flagged = false;
  std::string evidence;
  {
    TestConfig cfg = base(nic);
    cfg.requester().roce.min_time_between_cnps = 4 * kMicrosecond;
    cfg.traffic.verb = RdmaVerb::kWrite;
    cfg.traffic.message_size = 20 * 1024;
    cfg.traffic.data_pkt_events.push_back(
        DataPacketEvent{1, 4, EventType::kEcn, 1});
    Orchestrator orch(cfg);
    const TestResult& r = orch.run();
    const auto report = check_counters(
        r.trace, RdmaVerb::kWrite, r.requester_counters(), r.responder_counters(),
        {r.connections[0].requester.ip}, {r.connections[0].responder.ip});
    if (!report.consistent()) {
      flagged = true;
      evidence = report.inconsistencies[0].counter + " stuck";
    }
  }
  {
    TestConfig cfg = base(nic);
    cfg.traffic.verb = RdmaVerb::kRead;
    cfg.traffic.message_size = 20 * 1024;
    cfg.traffic.data_pkt_events.push_back(
        DataPacketEvent{1, 5, EventType::kDrop, 1});
    Orchestrator orch(cfg);
    const TestResult& r = orch.run();
    const auto report = check_counters(
        r.trace, RdmaVerb::kRead, r.requester_counters(), r.responder_counters(),
        {r.connections[0].requester.ip}, {r.connections[0].responder.ip});
    if (!report.consistent()) {
      flagged = true;
      if (!evidence.empty()) evidence += "; ";
      evidence += report.inconsistencies[0].counter + " stuck";
    }
  }
  if (evidence.empty()) evidence = "counters match trace ground truth";
  return DetectionResult{KnownIssue::kCounterInconsistency, nic, flagged,
                         evidence};
}

// §6.3: every packet marked; affected (i.e. rate limiting exists) when the
// CNP count falls short of the marked-packet count.
DetectionResult detect_cnp_rate_limiting(NicType nic) {
  TestConfig cfg = base(nic);
  cfg.requester().roce.dcqcn_rp_enable = false;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.message_size = 256 * 1024;
  for (int k = 1; k <= 256; ++k) {
    cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
        1, static_cast<std::uint32_t>(k), EventType::kEcn, 1});
  }
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  const auto report = analyze_cnps(result.trace);
  DetectionResult out{KnownIssue::kCnpRateLimiting, nic,
                      report.cnps.size() < report.ecn_marked_data_packets,
                      ""};
  out.evidence =
      fmt_evidence("%.0f CNPs for %.0f marked packets",
                   static_cast<double>(report.cnps.size()),
                   static_cast<double>(report.ecn_marked_data_packets));
  return out;
}

// §6.3: with adaptive retransmission requested, affected when the first
// RTO lands below the configured IB-spec minimum.
DetectionResult detect_adaptive_retrans(NicType nic) {
  TestConfig cfg = base(nic);
  cfg.requester().roce.adaptive_retrans = true;
  cfg.responder().roce.adaptive_retrans = true;
  cfg.traffic.verb = RdmaVerb::kWrite;
  cfg.traffic.message_size = 1024;
  cfg.traffic.min_retransmit_timeout = 14;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 1, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  std::vector<Tick> times;
  for (const auto& p : result.trace) {
    if (p.is_data()) times.push_back(p.time());
  }
  DetectionResult out{KnownIssue::kAdaptiveRetransDeviation, nic, false, ""};
  if (times.size() >= 2) {
    const Tick rto = times[1] - times[0];
    out.affected = rto < ib_timeout_to_rto(14) * 9 / 10;
    out.evidence = fmt_evidence("first RTO %.1f ms vs configured %.1f ms",
                                to_ms(rto), to_ms(ib_timeout_to_rto(14)));
  } else {
    out.evidence = "no retransmission observed";
  }
  return out;
}

}  // namespace

std::string to_string(KnownIssue issue) {
  switch (issue) {
    case KnownIssue::kNonWorkConservingEts:
      return "Non-work conserving ETS (6.2.1)";
    case KnownIssue::kNoisyNeighbor:
      return "Noisy neighbor (6.2.2)";
    case KnownIssue::kInteropMigReq:
      return "Interoperability problem (6.2.3)";
    case KnownIssue::kCounterInconsistency:
      return "Counter inconsistency (6.2.4)";
    case KnownIssue::kCnpRateLimiting:
      return "CNP rate limiting (6.3)";
    case KnownIssue::kAdaptiveRetransDeviation:
      return "Adaptive retransmission (6.3)";
  }
  return "?";
}

std::string issue_slug(KnownIssue issue) {
  switch (issue) {
    case KnownIssue::kNonWorkConservingEts: return "non-work-conserving-ets";
    case KnownIssue::kNoisyNeighbor: return "noisy-neighbor";
    case KnownIssue::kInteropMigReq: return "interop-migreq";
    case KnownIssue::kCounterInconsistency: return "counter-inconsistency";
    case KnownIssue::kCnpRateLimiting: return "cnp-rate-limiting";
    case KnownIssue::kAdaptiveRetransDeviation: return "adaptive-retrans";
  }
  return "?";
}

std::optional<KnownIssue> parse_known_issue(const std::string& slug) {
  for (const KnownIssue issue : all_known_issues()) {
    if (issue_slug(issue) == slug) return issue;
  }
  return std::nullopt;
}

const std::vector<KnownIssue>& all_known_issues() {
  static const std::vector<KnownIssue> issues = {
      KnownIssue::kNonWorkConservingEts,
      KnownIssue::kNoisyNeighbor,
      KnownIssue::kInteropMigReq,
      KnownIssue::kCounterInconsistency,
      KnownIssue::kCnpRateLimiting,
      KnownIssue::kAdaptiveRetransDeviation,
  };
  return issues;
}

DetectionResult detect_issue(KnownIssue issue, NicType nic) {
  switch (issue) {
    case KnownIssue::kNonWorkConservingEts: return detect_ets(nic);
    case KnownIssue::kNoisyNeighbor: return detect_noisy_neighbor(nic);
    case KnownIssue::kInteropMigReq: return detect_interop(nic);
    case KnownIssue::kCounterInconsistency: return detect_counters(nic);
    case KnownIssue::kCnpRateLimiting: return detect_cnp_rate_limiting(nic);
    case KnownIssue::kAdaptiveRetransDeviation:
      return detect_adaptive_retrans(nic);
  }
  return DetectionResult{issue, nic, false, "unknown issue"};
}

std::vector<DetectionResult> run_bug_suite(NicType nic,
                                           const CampaignOptions& options) {
  const auto& issues = all_known_issues();
  return parallel_map<DetectionResult>(
      issues.size(), options.jobs,
      [&](std::size_t i) { return detect_issue(issues[i], nic); });
}

}  // namespace lumina
