// Unit tests for the §4 test-suite analyzers, driven by hand-crafted
// synthetic traces — including deliberately NON-compliant traces that
// prove the Go-Back-N FSM checker can actually fail.
#include <gtest/gtest.h>

#include "analyzers/cnp_analyzer.h"
#include "analyzers/counter_analyzer.h"
#include "analyzers/gbn_fsm.h"
#include "analyzers/retrans_perf.h"

namespace lumina {
namespace {

const Ipv4Address kReqIp = Ipv4Address::from_octets(10, 0, 0, 1);
const Ipv4Address kRespIp = Ipv4Address::from_octets(10, 0, 0, 2);
constexpr std::uint32_t kReqQpn = 0x11;
constexpr std::uint32_t kRespQpn = 0x22;

/// Builds synthetic traces packet by packet.
class TraceBuilder {
 public:
  /// Requester -> responder data packet (Write stream by default).
  TraceBuilder& data(std::uint32_t psn, Tick t,
                     EventType event = EventType::kNone,
                     IbOpcode opcode = IbOpcode::kWriteMiddle) {
    RocePacketSpec spec = forward_spec();
    spec.opcode = opcode;
    spec.psn = psn;
    spec.payload_len = 1024;
    if (opcode == IbOpcode::kWriteFirst || opcode == IbOpcode::kWriteOnly) {
      spec.reth = Reth{0, 0, 1024};
    }
    push(spec, t, event);
    return *this;
  }

  /// Requester -> responder data packet held by a `delay` event: mirrored
  /// at `t` (its slot in mirror order) but released toward the receiver at
  /// `released_t`.
  TraceBuilder& delayed_data(std::uint32_t psn, Tick t, Tick released_t) {
    data(psn, t, EventType::kDelay);
    trace_.packets.back().released_at = released_t;
    return *this;
  }

  /// Responder -> requester read-response data packet.
  TraceBuilder& read_resp(std::uint32_t psn, Tick t,
                          EventType event = EventType::kNone) {
    RocePacketSpec spec = reverse_spec();
    spec.opcode = IbOpcode::kReadRespMiddle;
    spec.psn = psn;
    spec.payload_len = 1024;
    push(spec, t, event);
    return *this;
  }

  TraceBuilder& nak(std::uint32_t psn, Tick t) {
    RocePacketSpec spec = reverse_spec();
    spec.opcode = IbOpcode::kAcknowledge;
    spec.psn = psn;
    spec.aeth = Aeth::nak_sequence_error(0);
    push(spec, t, EventType::kNone);
    return *this;
  }

  TraceBuilder& ack(std::uint32_t psn, Tick t) {
    RocePacketSpec spec = reverse_spec();
    spec.opcode = IbOpcode::kAcknowledge;
    spec.psn = psn;
    spec.aeth = Aeth::ack(0);
    push(spec, t, EventType::kNone);
    return *this;
  }

  /// Requester -> responder read request (the read-traffic "NAK").
  TraceBuilder& read_request(std::uint32_t psn, Tick t, std::uint32_t len) {
    RocePacketSpec spec = forward_spec();
    spec.opcode = IbOpcode::kReadRequest;
    spec.psn = psn;
    spec.reth = Reth{0, 0, len};
    push(spec, t, EventType::kNone);
    return *this;
  }

  TraceBuilder& cnp(Ipv4Address from, Ipv4Address to, std::uint32_t dst_qpn,
                    Tick t) {
    RocePacketSpec spec;
    spec.src_ip = from;
    spec.dst_ip = to;
    spec.dest_qpn = dst_qpn;
    spec.opcode = IbOpcode::kCnp;
    push(spec, t, EventType::kNone);
    return *this;
  }

  const PacketTrace& trace() const { return trace_; }

 private:
  static RocePacketSpec forward_spec() {
    RocePacketSpec spec;
    spec.src_ip = kReqIp;
    spec.dst_ip = kRespIp;
    spec.dest_qpn = kRespQpn;
    return spec;
  }
  static RocePacketSpec reverse_spec() {
    RocePacketSpec spec;
    spec.src_ip = kRespIp;
    spec.dst_ip = kReqIp;
    spec.dest_qpn = kReqQpn;
    return spec;
  }

  void push(const RocePacketSpec& spec, Tick t, EventType event) {
    const Packet pkt = build_roce_packet(spec);
    TracePacket tp;
    tp.view = *parse_roce(pkt);
    tp.meta.mirror_seq = seq_++;
    tp.meta.ingress_timestamp = t;
    tp.meta.event = event;
    tp.orig_len = pkt.size();
    trace_.append(pkt.span(), tp);
  }

  PacketTrace trace_;
  std::uint64_t seq_ = 0;
};

// ---------------------------------------------------------------------------
// Go-Back-N FSM checker
// ---------------------------------------------------------------------------

TEST(GbnFsm, CompliantRecoveryPasses) {
  TraceBuilder b;
  // 1 2 [3 dropped] 4 5 -> NAK(3) -> 3 4 5 -> ACK(5)
  b.data(1, 100).data(2, 200).data(3, 300, EventType::kDrop);
  b.data(4, 400).data(5, 500);
  b.nak(3, 600);
  b.data(3, 700).data(4, 800).data(5, 900);
  b.ack(5, 1000);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  EXPECT_TRUE(report.compliant())
      << report.violations[0].rule << ": "
      << report.violations[0].description;
  EXPECT_EQ(report.flows_checked, 1u);
  EXPECT_EQ(report.episodes_seen, 1u);
}

TEST(GbnFsm, CleanTraceHasNoEpisodes) {
  TraceBuilder b;
  for (std::uint32_t i = 1; i <= 10; ++i) b.data(i, i * 100);
  b.ack(10, 1100);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  EXPECT_TRUE(report.compliant());
  EXPECT_EQ(report.episodes_seen, 0u);
}

TEST(GbnFsm, G1NakWithWrongPsnFlagged) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDrop).data(3, 300);
  b.nak(4, 400);  // expected PSN is 2, NAK says 4: spec violation
  b.data(2, 500).data(3, 600);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  EXPECT_EQ(report.violations[0].rule, "G1");
}

TEST(GbnFsm, OneNakPerRoundOnRepeatedLossIsCompliant) {
  // Listing 2's double-drop: the same PSN is lost in rounds 1 and 2; the
  // receiver NAKs once per round — compliant.
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDrop).data(3, 300);
  b.nak(2, 400);
  b.data(2, 500, EventType::kDrop).data(3, 600);  // round 2, lost again
  b.nak(2, 700);                                  // second round's NAK
  b.data(2, 800).data(3, 900);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  EXPECT_TRUE(report.compliant())
      << (report.violations.empty() ? ""
                                    : report.violations[0].description);
}

TEST(GbnFsm, DelayedPacketReplaysAtReleaseTime) {
  // A `delay` event holds PSN 2 at the switch: its mirror slot precedes
  // PSNs 3/4, but the receiver sees it only at release time (900) — after
  // NAKing the gap and after the retransmission round healed it. Replayed
  // in receiver order the trace is fully compliant; replayed in mirror
  // order the NAK would look causeless (the pre-fix false G2).
  TraceBuilder b;
  b.data(1, 100);
  b.delayed_data(2, 200, /*released_t=*/900);
  b.data(3, 300).data(4, 400);
  b.nak(2, 500);
  b.data(2, 600).data(3, 700).data(4, 800);  // go-back-N round 2
  b.ack(4, 1000);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  EXPECT_TRUE(report.compliant())
      << (report.violations.empty() ? ""
                                    : report.violations[0].description);
  EXPECT_EQ(report.episodes_seen, 1u);
}

TEST(GbnFsm, StaleNakAfterDelayedOriginalHealsIsTolerated) {
  // The race the fault_vocabulary scenario exposes: the delayed original is
  // released (450) while the receiver's NAK is still in its slow NACK-
  // generation pipeline (§6, Fig. 8), so in receiver order the gap heals
  // BEFORE the NAK lands (500). That one stale NAK — carrying exactly the
  // healed gap's PSN — is legitimate, not a causeless G2.
  TraceBuilder b;
  b.data(1, 100);
  b.delayed_data(2, 200, /*released_t=*/450);
  b.data(3, 300).data(4, 400);  // the episode the receiver NAKs
  b.nak(2, 500);                // lands after the delayed original healed it
  b.data(2, 600).data(3, 700).data(4, 800);  // go-back-N round the NAK triggers
  b.ack(4, 1000);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  EXPECT_TRUE(report.compliant())
      << (report.violations.empty() ? ""
                                    : report.violations[0].description);
  EXPECT_EQ(report.episodes_seen, 1u);
}

TEST(GbnFsm, StaleNakGraceIsSingleUse) {
  // A second NAK for the same healed gap is still a violation: the grace
  // covers exactly the one in-flight NAK the episode earned.
  TraceBuilder b;
  b.data(1, 100);
  b.delayed_data(2, 200, /*released_t=*/450);
  b.data(3, 300).data(4, 400);
  b.nak(2, 500).nak(2, 550);  // second stale NAK has no episode to claim
  b.data(2, 600).data(3, 700).data(4, 800);
  b.ack(4, 1000);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  EXPECT_EQ(report.violations[0].rule, "G2");
}

TEST(GbnFsm, DelayWithoutReleaseStampStillMisreads) {
  // Same wire history but with no release stamp joined onto the trace: the
  // FSM walks mirror order, sees 1..4 contiguous, and flags the receiver's
  // legitimate NAK — the exact failure mode the release-time replay fixes
  // (and why the orchestrator stamps released_at).
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDelay).data(3, 300).data(4, 400);
  b.nak(2, 500);
  b.data(2, 600).data(3, 700).data(4, 800);
  b.ack(4, 1000);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  EXPECT_EQ(report.violations[0].rule, "G2");
}

TEST(GbnFsm, G2DuplicateNakFlagged) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDrop).data(3, 300);
  b.nak(2, 400).nak(2, 450);  // NAK storm
  b.data(2, 500).data(3, 600);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  EXPECT_EQ(report.violations[0].rule, "G2");
}

TEST(GbnFsm, G2SpuriousNakFlagged) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200);
  b.nak(3, 300);  // nothing is out of order
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  EXPECT_EQ(report.violations[0].rule, "G2");
}

TEST(GbnFsm, G3UnresolvedEpisodeFlagged) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDrop).data(3, 300);
  b.nak(2, 400);
  // Trace ends without the retransmission ever arriving.
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  EXPECT_EQ(report.violations[0].rule, "G3");
}

TEST(GbnFsm, G4RetransmissionSkippingExpectedFlagged) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDrop).data(3, 300).data(4, 400);
  b.nak(2, 500);
  b.data(3, 600);  // round rewinds to 3, skipping the NAKed PSN 2
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  bool g4 = false;
  for (const auto& v : report.violations) g4 = g4 || v.rule == "G4";
  EXPECT_TRUE(g4);
}

TEST(GbnFsm, G5AckBeyondDeliveredFlagged) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200);
  b.ack(7, 300);  // acknowledges data never delivered
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kWrite);
  ASSERT_FALSE(report.compliant());
  EXPECT_EQ(report.violations[0].rule, "G5");
}

TEST(GbnFsm, ReadRecoveryViaReRequestPasses) {
  TraceBuilder b;
  // Read responses 1 2 [3 dropped] 4 -> re-request(3) -> 3 4.
  b.read_resp(1, 100).read_resp(2, 200).read_resp(3, 300, EventType::kDrop);
  b.read_resp(4, 400);
  b.read_request(3, 500, 2048);
  b.read_resp(3, 600).read_resp(4, 700);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kRead);
  EXPECT_TRUE(report.compliant())
      << (report.violations.empty() ? ""
                                    : report.violations[0].description);
}

TEST(GbnFsm, PipelinedFutureReadRequestIsNotANak) {
  TraceBuilder b;
  b.read_resp(1, 100).read_resp(2, 200, EventType::kDrop).read_resp(3, 300);
  b.read_request(10, 350, 4096);  // next message, not a recovery request
  b.read_request(2, 500, 2048);   // the actual implied NAK
  b.read_resp(2, 600).read_resp(3, 700);
  const auto report = check_gbn_compliance(b.trace(), RdmaVerb::kRead);
  EXPECT_TRUE(report.compliant());
}

// ---------------------------------------------------------------------------
// Retransmission performance analyzer
// ---------------------------------------------------------------------------

TEST(RetransPerf, SplitsNackGenerationAndReaction) {
  TraceBuilder b;
  b.data(1, 1000).data(2, 2000, EventType::kDrop).data(3, 3000);
  b.nak(2, 5000);
  b.data(2, 9000).data(3, 10000);
  const auto episodes = analyze_retransmissions(b.trace(), RdmaVerb::kWrite);
  ASSERT_EQ(episodes.size(), 1u);
  const auto& ep = episodes[0];
  EXPECT_EQ(ep.psn, 2u);
  EXPECT_EQ(ep.iter, 1u);
  EXPECT_FALSE(ep.timeout_recovery);
  ASSERT_TRUE(ep.nack_generation_latency().has_value());
  EXPECT_EQ(*ep.nack_generation_latency(), 2000);  // 5000 - 3000
  ASSERT_TRUE(ep.nack_reaction_latency().has_value());
  EXPECT_EQ(*ep.nack_reaction_latency(), 4000);  // 9000 - 5000
  EXPECT_EQ(*ep.total_latency(), 7000);
}

TEST(RetransPerf, TailDropIsTimeoutRecovery) {
  TraceBuilder b;
  b.data(1, 1000).data(2, 2000).data(3, 3000, EventType::kDrop);
  b.data(3, 5'000'000);  // RTO retransmission, no NAK in between
  const auto episodes = analyze_retransmissions(b.trace(), RdmaVerb::kWrite);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_TRUE(episodes[0].timeout_recovery);
  EXPECT_FALSE(episodes[0].nack_time.has_value());
  EXPECT_EQ(*episodes[0].total_latency(), 5'000'000 - 3000);
}

TEST(RetransPerf, TracksIterOfEachDrop) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDrop).data(3, 300);
  b.nak(2, 400);
  b.data(2, 500, EventType::kDrop).data(3, 600);  // retransmission dropped
  b.nak(2, 700);
  b.data(2, 800).data(3, 900);
  const auto episodes = analyze_retransmissions(b.trace(), RdmaVerb::kWrite);
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].iter, 1u);
  EXPECT_EQ(episodes[1].iter, 2u);
  EXPECT_TRUE(episodes[1].retransmit_time.has_value());
}

TEST(RetransPerf, ReadUsesReRequestAsNack) {
  TraceBuilder b;
  b.read_resp(1, 1000).read_resp(2, 2000, EventType::kDrop)
      .read_resp(3, 3000);
  b.read_request(2, 90'000, 2048);  // implied NAK after 87 us
  b.read_resp(2, 95'000).read_resp(3, 96'000);
  const auto episodes = analyze_retransmissions(b.trace(), RdmaVerb::kRead);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(*episodes[0].nack_generation_latency(), 87'000);
  EXPECT_EQ(*episodes[0].nack_reaction_latency(), 5'000);
}

// ---------------------------------------------------------------------------
// CNP analyzer
// ---------------------------------------------------------------------------

TEST(CnpAnalyzer, CollectsCnpsAndMarkedPackets) {
  TraceBuilder b;
  b.data(1, 100, EventType::kEcn);
  b.data(2, 200, EventType::kEcn);
  b.cnp(kRespIp, kReqIp, kReqQpn, 300);
  const auto report = analyze_cnps(b.trace());
  EXPECT_EQ(report.ecn_marked_data_packets, 2u);
  ASSERT_EQ(report.cnps.size(), 1u);
  EXPECT_EQ(report.cnps[0].np_ip, kRespIp);
  EXPECT_EQ(report.cnps[0].rp_ip, kReqIp);
}

TEST(CnpAnalyzer, FiltersByNpIp) {
  TraceBuilder b;
  b.cnp(kRespIp, kReqIp, kReqQpn, 100);
  b.cnp(kReqIp, kRespIp, kRespQpn, 200);
  EXPECT_EQ(analyze_cnps(b.trace(), {kRespIp}).cnps.size(), 1u);
  EXPECT_EQ(analyze_cnps(b.trace()).cnps.size(), 2u);
}

TEST(CnpAnalyzer, GroupedMinimumIntervals) {
  const Ipv4Address rp2 = Ipv4Address::from_octets(10, 0, 0, 9);
  TraceBuilder b;
  // Two RP IPs, interleaved 2 us apart; per-IP spacing 4 us.
  b.cnp(kRespIp, kReqIp, 1, 0);
  b.cnp(kRespIp, rp2, 2, 2000);
  b.cnp(kRespIp, kReqIp, 1, 4000);
  b.cnp(kRespIp, rp2, 2, 6000);
  const auto report = analyze_cnps(b.trace());
  EXPECT_EQ(*report.min_interval_global(), 2000);
  EXPECT_EQ(*report.min_interval_per_dest_ip(), 4000);
  EXPECT_EQ(*report.min_interval_per_qp(), 4000);
}

TEST(CnpAnalyzer, InfersEachMode) {
  constexpr Tick kInterval = 4000;
  {  // per-port: global gaps respect the interval
    TraceBuilder b;
    for (int i = 0; i < 8; ++i) {
      b.cnp(kRespIp, kReqIp, static_cast<std::uint32_t>(i % 3),
            i * kInterval);
    }
    EXPECT_EQ(infer_cnp_mode(analyze_cnps(b.trace()), kInterval),
              CnpRateLimitMode::kPerPort);
  }
  {  // per-dest-ip: same-IP gaps respect it; global gaps do not
    const Ipv4Address rp2 = Ipv4Address::from_octets(10, 0, 0, 9);
    TraceBuilder b;
    for (int i = 0; i < 8; ++i) {
      b.cnp(kRespIp, i % 2 == 0 ? kReqIp : rp2, 1,
            i * kInterval / 2);
    }
    EXPECT_EQ(infer_cnp_mode(analyze_cnps(b.trace()), kInterval),
              CnpRateLimitMode::kPerDestIp);
  }
  {  // per-qp: only same-QP gaps respect it
    TraceBuilder b;
    for (int i = 0; i < 12; ++i) {
      b.cnp(kRespIp, kReqIp, static_cast<std::uint32_t>(i % 4),
            i * kInterval / 4);
    }
    EXPECT_EQ(infer_cnp_mode(analyze_cnps(b.trace()), kInterval),
              CnpRateLimitMode::kPerQp);
  }
}

// ---------------------------------------------------------------------------
// Counter analyzer
// ---------------------------------------------------------------------------

TEST(CounterAnalyzer, FlagsStuckCnpCounter) {
  TraceBuilder b;
  b.data(1, 100, EventType::kEcn);
  b.cnp(kRespIp, kReqIp, kReqQpn, 300);
  RnicCounters req_counters, resp_counters;
  resp_counters.np_cnp_sent = 0;  // stuck (E810 bug)
  const auto report = check_counters(b.trace(), RdmaVerb::kWrite,
                                     req_counters, resp_counters, {kReqIp},
                                     {kRespIp});
  ASSERT_FALSE(report.consistent());
  EXPECT_EQ(report.inconsistencies[0].counter, "np_cnp_sent");
  EXPECT_EQ(report.inconsistencies[0].nic, "responder");
}

TEST(CounterAnalyzer, AcceptsCorrectCnpCounter) {
  TraceBuilder b;
  b.cnp(kRespIp, kReqIp, kReqQpn, 300);
  RnicCounters req_counters, resp_counters;
  resp_counters.np_cnp_sent = 1;
  const auto report = check_counters(b.trace(), RdmaVerb::kWrite,
                                     req_counters, resp_counters, {kReqIp},
                                     {kRespIp});
  EXPECT_TRUE(report.consistent());
}

TEST(CounterAnalyzer, FlagsStuckImpliedNakOnReadDrops) {
  TraceBuilder b;
  b.read_resp(1, 100).read_resp(2, 200, EventType::kDrop).read_resp(3, 300);
  b.read_request(2, 400, 2048);
  b.read_resp(2, 500).read_resp(3, 600);
  RnicCounters req_counters, resp_counters;
  req_counters.implied_nak_seq_err = 0;  // stuck (CX4 Lx bug)
  resp_counters.retransmitted_packets = 2;
  const auto report = check_counters(b.trace(), RdmaVerb::kRead,
                                     req_counters, resp_counters, {kReqIp},
                                     {kRespIp});
  ASSERT_FALSE(report.consistent());
  bool flagged = false;
  for (const auto& inc : report.inconsistencies) {
    flagged = flagged || inc.counter == "implied_nak_seq_err";
  }
  EXPECT_TRUE(flagged);
}

TEST(CounterAnalyzer, FlagsMissingNakCounters) {
  TraceBuilder b;
  b.data(1, 100).data(2, 200, EventType::kDrop).data(3, 300);
  b.nak(2, 400);
  b.data(2, 500).data(3, 600);
  RnicCounters req_counters, resp_counters;  // all zero
  const auto report = check_counters(b.trace(), RdmaVerb::kWrite,
                                     req_counters, resp_counters, {kReqIp},
                                     {kRespIp});
  ASSERT_FALSE(report.consistent());
  bool oos = false, seq_err = false;
  for (const auto& inc : report.inconsistencies) {
    oos = oos || inc.counter == "out_of_sequence";
    seq_err = seq_err || inc.counter == "packet_seq_err";
  }
  EXPECT_TRUE(oos);
  EXPECT_TRUE(seq_err);
}

TEST(CounterAnalyzer, CleanTraceWithZeroCountersIsConsistent) {
  TraceBuilder b;
  for (std::uint32_t i = 1; i <= 5; ++i) b.data(i, i * 100);
  b.ack(5, 600);
  RnicCounters req_counters, resp_counters;
  const auto report = check_counters(b.trace(), RdmaVerb::kWrite,
                                     req_counters, resp_counters, {kReqIp},
                                     {kRespIp});
  EXPECT_TRUE(report.consistent());
}

}  // namespace
}  // namespace lumina
