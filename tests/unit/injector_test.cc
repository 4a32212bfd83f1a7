// Unit tests for the event-injector switch: ITER tracking (Fig. 3), the
// match-action event table, metadata embedding (§3.4), weighted
// round-robin mirroring, and the data-plane pipeline.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "injector/event_table.h"
#include "injector/fault_models.h"
#include "orchestrator/orchestrator.h"
#include "packet/pfc.h"
#include "telemetry/report.h"
#include "util/random.h"
#include "injector/mirror.h"
#include "injector/switch.h"

namespace lumina {
namespace {

const FlowKey kFlow{Ipv4Address::from_octets(10, 0, 0, 1),
                    Ipv4Address::from_octets(10, 0, 0, 2), 0xea};

// ---------------------------------------------------------------------------
// IterTracker — the Fig. 3 walkthrough and beyond
// ---------------------------------------------------------------------------

TEST(IterTracker, Figure3Walkthrough) {
  // Packets: 1 2 3 4 | 2 3 4 | 3 4   (drop 2 in round 1, 3 in round 2)
  IterTracker tracker;
  tracker.register_flow(kFlow, 1);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {1, 1}, {2, 1}, {3, 1}, {4, 1},  // first round
      {2, 2}, {3, 2}, {4, 2},          // retransmission round 2
      {3, 3}, {4, 3},                  // retransmission round 3
  };
  for (const auto& [psn, iter] : expected) {
    EXPECT_EQ(tracker.observe(kFlow, psn), iter) << "psn " << psn;
  }
}

TEST(IterTracker, EqualPsnStartsNewRound) {
  IterTracker tracker;
  tracker.register_flow(kFlow, 10);
  EXPECT_EQ(tracker.observe(kFlow, 10), 1u);
  EXPECT_EQ(tracker.observe(kFlow, 10), 2u);  // PSN == last -> new round
  EXPECT_EQ(tracker.observe(kFlow, 10), 3u);
}

TEST(IterTracker, FirstPacketOfRegisteredFlowIsRoundOne) {
  // last-PSN initializes to IPSN-1 so the first packet stays in round 1.
  IterTracker tracker;
  tracker.register_flow(kFlow, 1000);
  EXPECT_EQ(tracker.observe(kFlow, 1000), 1u);
  EXPECT_EQ(tracker.observe(kFlow, 1001), 1u);
}

TEST(IterTracker, StatefulDiscoveryFallback) {
  // Unregistered flows are discovered on first sight (ablation mode).
  IterTracker tracker;
  EXPECT_EQ(tracker.observe(kFlow, 500), 1u);
  EXPECT_EQ(tracker.observe(kFlow, 501), 1u);
  EXPECT_EQ(tracker.observe(kFlow, 500), 2u);
  EXPECT_EQ(tracker.tracked_flows(), 1u);
}

TEST(IterTracker, FlowsAreIndependent) {
  IterTracker tracker;
  FlowKey other = kFlow;
  other.dst_qpn = 0xfe;
  tracker.register_flow(kFlow, 1);
  tracker.register_flow(other, 1);
  tracker.observe(kFlow, 1);
  tracker.observe(kFlow, 1);  // flow A now round 2
  EXPECT_EQ(tracker.iter(kFlow), 2u);
  EXPECT_EQ(tracker.iter(other), 1u);
}

TEST(IterTracker, HandlesPsnWrap) {
  IterTracker tracker;
  tracker.register_flow(kFlow, 0xfffffe);
  EXPECT_EQ(tracker.observe(kFlow, 0xfffffe), 1u);
  EXPECT_EQ(tracker.observe(kFlow, 0xffffff), 1u);
  EXPECT_EQ(tracker.observe(kFlow, 0x000000), 1u);  // wrap is forward
  EXPECT_EQ(tracker.observe(kFlow, 0xffffff), 2u);  // going back: new round
}

/// Property: ITER computed by the tracker matches a reference model that
/// replays the same PSN sequence.
class IterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IterPropertyTest, MatchesReferenceModel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  IterTracker tracker;
  tracker.register_flow(kFlow, 100);
  std::uint32_t last = 99;
  std::uint32_t ref_iter = 1;
  std::uint32_t psn = 100;
  for (int i = 0; i < 500; ++i) {
    // Random walk: mostly forward, occasional rewinds (retransmissions).
    if (rng.next_bool(0.15)) {
      psn = psn_add(psn, -static_cast<std::int64_t>(rng.next_below(5)) - 1);
    } else {
      psn = psn_add(psn, 1);
    }
    if (!psn_gt(psn, last)) ++ref_iter;
    last = psn;
    EXPECT_EQ(tracker.observe(kFlow, psn), ref_iter) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IterPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 42));

// ---------------------------------------------------------------------------
// EventTable
// ---------------------------------------------------------------------------

TEST(EventTable, ExactMatchAndConsumption) {
  EventTable table;
  table.install(EventRule{kFlow, 1004, 1, EventType::kEcn});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.match(kFlow, 1003, 1).has_value());
  EXPECT_FALSE(table.match(kFlow, 1004, 2).has_value());
  FlowKey other = kFlow;
  other.dst_qpn = 0x1;
  EXPECT_FALSE(table.match(other, 1004, 1).has_value());
  const auto hit = table.match(kFlow, 1004, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->type, EventType::kEcn);
  // Single-shot: the rule is consumed.
  EXPECT_FALSE(table.match(kFlow, 1004, 1).has_value());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.hits(), 1u);
}

TEST(EventTable, PeekDoesNotConsume) {
  EventTable table;
  table.install(EventRule{kFlow, 7, 1, EventType::kDrop});
  EXPECT_TRUE(table.peek(kFlow, 7, 1).has_value());
  EXPECT_TRUE(table.peek(kFlow, 7, 1).has_value());
  EXPECT_EQ(table.size(), 1u);
}

TEST(EventTable, SameKeyDifferentIter) {
  EventTable table;
  table.install(EventRule{kFlow, 5, 1, EventType::kDrop});
  table.install(EventRule{kFlow, 5, 2, EventType::kDrop});
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.match(kFlow, 5, 2).has_value());
  EXPECT_TRUE(table.match(kFlow, 5, 1).has_value());
}

TEST(EventTable, PaperScaleCapacity) {
  // §5: ~100K events for 10K connections fit in ~1 MB of table memory.
  EventTable table;
  for (std::uint32_t c = 0; c < 10'000; ++c) {
    FlowKey flow = kFlow;
    flow.dst_qpn = c;
    for (std::uint32_t e = 0; e < 10; ++e) {
      table.install(EventRule{flow, 1000 + e, 1, EventType::kDrop});
    }
  }
  EXPECT_EQ(table.size(), 100'000u);
  FlowKey probe = kFlow;
  probe.dst_qpn = 9'999;
  EXPECT_TRUE(table.match(probe, 1009, 1).has_value());
}

// ---------------------------------------------------------------------------
// MirrorEngine — metadata embedding + WRR
// ---------------------------------------------------------------------------

Packet sample_packet() {
  RocePacketSpec spec;
  spec.src_ip = kFlow.src_ip;
  spec.dst_ip = kFlow.dst_ip;
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0, 0, 512};
  spec.payload_len = 512;
  spec.dest_qpn = kFlow.dst_qpn;
  spec.psn = 42;
  return build_roce_packet(spec);
}

TEST(MirrorEngine, EmbedsAndExtractsMetadata) {
  MirrorEngine engine(1);
  engine.set_targets({2});
  const auto mirrored = engine.mirror(sample_packet(), EventType::kDrop,
                                      123'456'789);
  const MirrorMeta meta = extract_mirror_meta(mirrored.clone);
  EXPECT_EQ(meta.mirror_seq, 0u);
  EXPECT_EQ(meta.ingress_timestamp, 123'456'789);
  EXPECT_EQ(meta.event, EventType::kDrop);

  const auto second = engine.mirror(sample_packet(), EventType::kNone, 99);
  EXPECT_EQ(extract_mirror_meta(second.clone).mirror_seq, 1u);
  EXPECT_EQ(engine.mirrored_count(), 2u);
}

TEST(MirrorEngine, CloneStillParsesAndOriginalUntouched) {
  MirrorEngine engine(1);
  engine.set_targets({2});
  const Packet original = sample_packet();
  const auto mirrored = engine.mirror(original, EventType::kEcn, 5);
  const auto view = parse_roce(mirrored.clone);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bth.psn, 42u);
  EXPECT_NE(view->udp_dst_port, kRoceUdpPort);  // randomized for RSS
  // Restoration brings the clone back to a proper RoCE packet.
  Packet restored = mirrored.clone;
  set_udp_dst_port(restored, kRoceUdpPort);
  EXPECT_EQ(parse_roce(restored)->udp_dst_port, kRoceUdpPort);
  // The original was cloned, not mutated.
  EXPECT_EQ(parse_roce(original)->udp_dst_port, kRoceUdpPort);
  EXPECT_EQ(parse_roce(original)->ttl, 64);
}

TEST(MirrorEngine, RandomizationCanBeDisabled) {
  MirrorEngine engine(1);
  engine.set_targets({2});
  engine.set_randomize_udp_port(false);
  const auto mirrored = engine.mirror(sample_packet(), EventType::kNone, 0);
  EXPECT_EQ(parse_roce(mirrored.clone)->udp_dst_port, kRoceUdpPort);
}

TEST(MirrorEngine, RoundRobinPicksTargetsInOrder) {
  MirrorEngine engine(1);
  engine.set_targets({4, 2, 3});
  std::vector<int> picked;
  for (int i = 0; i < 7; ++i) {
    picked.push_back(
        engine.mirror(sample_packet(), EventType::kNone, 0).port_index);
  }
  EXPECT_EQ(picked, (std::vector<int>{4, 2, 3, 4, 2, 3, 4}));
}

TEST(MirrorEngine, EqualWeightsAlternate) {
  MirrorEngine engine(1);
  engine.set_targets({2, 3});
  std::map<int, int> counts;
  for (int i = 0; i < 100; ++i) {
    ++counts[engine.mirror(sample_packet(), EventType::kNone, 0).port_index];
  }
  EXPECT_EQ(counts[2], 50);
  EXPECT_EQ(counts[3], 50);
}

// ---------------------------------------------------------------------------
// The switch data plane
// ---------------------------------------------------------------------------

class CaptureNode : public Node {
 public:
  explicit CaptureNode(Simulator* sim) : port_(sim, this, 0) {}
  void handle_packet(int, Packet pkt) override {
    if (arrivals != nullptr) arrivals->push_back(this);
    packets.push_back(std::move(pkt));
  }
  Port& port() { return port_; }
  std::vector<Packet> packets;
  /// When set, every arrival appends this node: the order across nodes.
  std::vector<const CaptureNode*>* arrivals = nullptr;

 private:
  Port port_;
};

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() : host_a(&sim), host_b(&sim), dumper(&sim) { build({}); }

  /// Builds the switch with `options` and wires host_a, host_b and the
  /// dumper to ports 0-2. The fixture builds it with the default options;
  /// a test that needs others builds it again before any traffic.
  void build(const EventInjectorSwitch::Options& options) {
    sw.emplace(&sim, 4, options);
    connect(host_a.port(), sw->port(0), LinkParams{100.0, 10});
    connect(host_b.port(), sw->port(1), LinkParams{100.0, 10});
    connect(dumper.port(), sw->port(2), LinkParams{100.0, 10});
    sw->add_route(kFlow.src_ip, 0);
    sw->add_route(kFlow.dst_ip, 1);
    sw->set_mirror_targets({2});
  }

  Simulator sim;
  CaptureNode host_a;
  CaptureNode host_b;
  CaptureNode dumper;
  std::optional<EventInjectorSwitch> sw;
};

TEST_F(SwitchTest, ForwardsByDestinationIp) {
  host_a.port().send(sample_packet());
  sim.run();
  ASSERT_EQ(host_b.packets.size(), 1u);
  EXPECT_TRUE(host_a.packets.empty());
  EXPECT_EQ(sw->roce_counters().roce_rx, 1u);
  EXPECT_EQ(sw->roce_counters().roce_tx, 1u);
}

TEST_F(SwitchTest, MirrorsEveryRocePacket) {
  host_a.port().send(sample_packet());
  host_a.port().send(sample_packet());
  sim.run();
  EXPECT_EQ(dumper.packets.size(), 2u);
  EXPECT_EQ(sw->roce_counters().mirrored, 2u);
  // Mirror copies carry consecutive sequence numbers.
  EXPECT_EQ(extract_mirror_meta(dumper.packets[0]).mirror_seq, 0u);
  EXPECT_EQ(extract_mirror_meta(dumper.packets[1]).mirror_seq, 1u);
}

TEST_F(SwitchTest, DropRuleDropsButStillMirrors) {
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kDrop});
  host_a.port().send(sample_packet());
  sim.run();
  EXPECT_TRUE(host_b.packets.empty());  // dropped before the MMU
  ASSERT_EQ(dumper.packets.size(), 1u);  // but mirrored (§3.4)
  EXPECT_EQ(extract_mirror_meta(dumper.packets[0]).event, EventType::kDrop);
  EXPECT_EQ(sw->roce_counters().dropped_by_event, 1u);
  EXPECT_EQ(sw->roce_counters().events_applied, 1u);
}

TEST_F(SwitchTest, EcnRuleMarksForwardedPacket) {
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kEcn});
  host_a.port().send(sample_packet());
  sim.run();
  ASSERT_EQ(host_b.packets.size(), 1u);
  EXPECT_TRUE(parse_roce(host_b.packets[0])->ecn_ce());
  EXPECT_TRUE(verify_icrc(host_b.packets[0]));  // ECN is iCRC-masked
  EXPECT_EQ(extract_mirror_meta(dumper.packets.at(0)).event, EventType::kEcn);
}

TEST_F(SwitchTest, CorruptRuleBreaksIcrc) {
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kCorrupt});
  host_a.port().send(sample_packet());
  sim.run();
  ASSERT_EQ(host_b.packets.size(), 1u);
  EXPECT_FALSE(verify_icrc(host_b.packets[0]));
}

TEST_F(SwitchTest, EnforceDropsFalseKeepsTablesButForwards) {
  EventInjectorSwitch::Options options;
  options.enforce_drops = false;
  build(options);
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kDrop});
  host_a.port().send(sample_packet());
  sim.run();
  EXPECT_EQ(host_b.packets.size(), 1u);  // matched but not enforced (§5)
  EXPECT_EQ(sw->roce_counters().events_applied, 1u);
}

TEST_F(SwitchTest, RewriteMigReqAction) {
  EventInjectorSwitch::Options options;
  options.rewrite_mig_req = true;
  build(options);
  RocePacketSpec spec;
  spec.src_ip = kFlow.src_ip;
  spec.dst_ip = kFlow.dst_ip;
  spec.opcode = IbOpcode::kSendOnly;
  spec.payload_len = 128;
  spec.mig_req = false;  // E810-style
  host_a.port().send(build_roce_packet(spec));
  sim.run();
  ASSERT_EQ(host_b.packets.size(), 1u);
  EXPECT_TRUE(parse_roce(host_b.packets[0])->bth.mig_req);
  EXPECT_TRUE(verify_icrc(host_b.packets[0]));
}

TEST_F(SwitchTest, RewriteMigReqKeepsACorruptedFrameExactlyAsCorrupt) {
  // A corrupt event and the §6.2.3 MigReq rewrite on one frame. The
  // rewrite moves the trailer by the change in the iCRC, so the frame
  // leaves with MigReq 1 and the trailer of a clean MigReq-1 frame, and
  // the corruption is still the only thing wrong with it.
  EventInjectorSwitch::Options options;
  options.rewrite_mig_req = true;
  build(options);
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kCorrupt});
  RocePacketSpec spec;
  spec.src_ip = kFlow.src_ip;
  spec.dst_ip = kFlow.dst_ip;
  spec.opcode = IbOpcode::kSendOnly;
  spec.payload_len = 128;
  spec.dest_qpn = kFlow.dst_qpn;
  spec.psn = 42;
  spec.mig_req = false;  // E810-style
  host_a.port().send(build_roce_packet(spec));
  sim.run();
  ASSERT_EQ(host_b.packets.size(), 1u);
  EXPECT_EQ(sw->roce_counters().events_applied, 1u);
  Packet delivered = host_b.packets[0];
  EXPECT_TRUE(parse_roce(delivered)->bth.mig_req);
  EXPECT_FALSE(verify_icrc(delivered));
  RocePacketSpec clean = spec;
  clean.mig_req = true;
  const Packet expected = build_roce_packet(clean);
  const auto trailer = [](const Packet& pkt) {
    return std::vector<std::uint8_t>(pkt.bytes.end() - 4, pkt.bytes.end());
  };
  EXPECT_EQ(trailer(delivered), trailer(expected));
  corrupt_payload_bit(delivered);  // flips the corrupted bit back
  EXPECT_TRUE(verify_icrc(delivered));
  EXPECT_EQ(delivered.bytes, expected.bytes);
}

using Injector = SwitchTest;

TEST_F(Injector, RewriteMigReqEventSetsMigReqOnTheMatchedPacketOnly) {
  // docs/fuzzing.md: a rewrite-migreq event acts on exactly the matched
  // packet. E810-style frames (MigReq 0) at PSN k-1, k and k+1; only k
  // leaves with MigReq 1, on the wire and in its mirror copy.
  const std::uint32_t k = 42;
  sw->register_flow(kFlow, k - 1);
  EventRule rule;
  rule.flow = kFlow;
  rule.psn = k;
  rule.action = EventType::kRewriteMigReq;
  sw->install_rule(rule);
  for (const std::uint32_t psn : {k - 1, k, k + 1}) {
    RocePacketSpec spec;
    spec.src_ip = kFlow.src_ip;
    spec.dst_ip = kFlow.dst_ip;
    spec.opcode = IbOpcode::kSendOnly;
    spec.payload_len = 256;
    spec.dest_qpn = kFlow.dst_qpn;
    spec.psn = psn;
    spec.mig_req = false;
    host_a.port().send(build_roce_packet(spec));
  }
  sim.run();
  EXPECT_EQ(sw->roce_counters().events_applied, 1u);
  ASSERT_EQ(host_b.packets.size(), 3u);
  ASSERT_EQ(dumper.packets.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto forwarded = parse_roce(host_b.packets[i]);
    const auto mirrored = parse_roce(dumper.packets[i]);
    ASSERT_TRUE(forwarded.has_value() && mirrored.has_value());
    const bool matched = forwarded->bth.psn == k;
    EXPECT_EQ(forwarded->bth.mig_req, matched) << "psn " << forwarded->bth.psn;
    EXPECT_EQ(mirrored->bth.psn, forwarded->bth.psn);
    EXPECT_EQ(mirrored->bth.mig_req, matched) << "psn " << mirrored->bth.psn;
    EXPECT_TRUE(verify_icrc(host_b.packets[i])) << "psn " << forwarded->bth.psn;
  }
  EXPECT_EQ(extract_mirror_meta(dumper.packets[1]).event,
            EventType::kRewriteMigReq);
}

TEST_F(SwitchTest, EventStageAddsLatency) {
  // Compare arrival times with and without the event-injection stages.
  host_a.port().send(sample_packet());
  sim.run();
  ASSERT_EQ(host_b.packets.size(), 1u);
  const Tick with_events = sim.now();

  Simulator sim2;
  EventInjectorSwitch::Options options;
  options.enable_event_injection = false;
  EventInjectorSwitch sw2(&sim2, 4, options);
  CaptureNode a2(&sim2), b2(&sim2);
  connect(a2.port(), sw2.port(0), LinkParams{100.0, 10});
  connect(b2.port(), sw2.port(1), LinkParams{100.0, 10});
  sw2.add_route(kFlow.dst_ip, 1);
  a2.port().send(sample_packet());
  sim2.run();
  ASSERT_EQ(b2.packets.size(), 1u);
  EXPECT_EQ(with_events - sim2.now(), EventInjectorSwitch::kEventStageLatency);
}

TEST_F(SwitchTest, UnroutableDestinationIsDropped) {
  RocePacketSpec spec;
  spec.src_ip = kFlow.src_ip;
  spec.dst_ip = Ipv4Address::from_octets(172, 16, 0, 1);  // no route
  spec.opcode = IbOpcode::kSendOnly;
  host_a.port().send(build_roce_packet(spec));
  sim.run();
  EXPECT_TRUE(host_b.packets.empty());
  EXPECT_EQ(sw->roce_counters().mirrored, 1u);  // still mirrored at ingress
}

// ---------------------------------------------------------------------------
// Gilbert–Elliott burst-loss channel
// ---------------------------------------------------------------------------

TEST(GilbertElliott, LossRateAndBurstLengthMatchParameters) {
  // Stationary loss rate of the two-state chain is p/(p+r); the mean
  // sojourn in Bad (mean burst length) is 1/r. Empirical estimates over a
  // long seeded run must land near both closed forms.
  const double p = 0.05;
  const double r = 0.25;
  GilbertElliottChannel channel(p, r, /*seed=*/0xB0B0);
  const int decisions = 200'000;
  int losses = 0;
  int bursts = 0;
  bool in_burst = false;
  for (int i = 0; i < decisions; ++i) {
    if (channel.drop_next()) {
      ++losses;
      if (!in_burst) ++bursts;
      in_burst = true;
    } else {
      in_burst = false;
    }
  }
  const double loss_rate = static_cast<double>(losses) / decisions;
  EXPECT_NEAR(loss_rate, p / (p + r), 0.02);
  ASSERT_GT(bursts, 0);
  const double mean_burst = static_cast<double>(losses) / bursts;
  EXPECT_NEAR(mean_burst, 1.0 / r, 0.4);
  EXPECT_EQ(channel.decisions(), static_cast<std::uint64_t>(decisions));
}

TEST(GilbertElliott, DeterministicForSameSeed) {
  GilbertElliottChannel a(0.1, 0.3, 42);
  GilbertElliottChannel b(0.1, 0.3, 42);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(a.drop_next(), b.drop_next()) << "diverged at decision " << i;
  }
  // A different seed must (overwhelmingly) produce a different sequence.
  GilbertElliottChannel c(0.1, 0.3, 43);
  GilbertElliottChannel d(0.1, 0.3, 42);
  int agreements = 0;
  for (int i = 0; i < 10'000; ++i) {
    agreements += c.drop_next() == d.drop_next() ? 1 : 0;
  }
  EXPECT_LT(agreements, 10'000);
}

TEST(GilbertElliott, StartBadLosesTriggerPacket) {
  // The injector arms channels in Bad so the matched packet is the first
  // casualty; with r = 0 the burst never ends.
  GilbertElliottChannel channel(0.0, 0.0, 7, /*start_bad=*/true);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(channel.drop_next());
}

// ---------------------------------------------------------------------------
// The stateful fault models on the switch data plane
// ---------------------------------------------------------------------------

Packet psn_packet(std::uint32_t psn) {
  RocePacketSpec spec;
  spec.src_ip = kFlow.src_ip;
  spec.dst_ip = kFlow.dst_ip;
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0, 0, 512};
  spec.payload_len = 512;
  spec.dest_qpn = kFlow.dst_qpn;
  spec.psn = psn;
  return build_roce_packet(spec);
}

TEST_F(SwitchTest, DuplicateRuleEmitsOneClone) {
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kDuplicate});
  host_a.port().send(sample_packet());
  sim.run();
  EXPECT_EQ(host_b.packets.size(), 2u);  // original + clone
  EXPECT_EQ(sw->fault_stats().duplicates_emitted, 1u);
  EXPECT_EQ(sw->roce_counters().roce_tx, 2u);
  // Mirrored once: the clone is an egress artifact, not new ingress.
  EXPECT_EQ(sw->roce_counters().mirrored, 1u);
}

TEST_F(SwitchTest, BurstLossChannelDropsArmedFlow) {
  sw->register_flow(kFlow, 42);
  EventRule rule{kFlow, 42, 1, EventType::kBurstLoss};
  rule.fault.ge_p = 0.0;  // never leaves Bad once armed...
  rule.fault.ge_r = 0.0;
  rule.fault.duration = 0;  // ...for the rest of the run
  sw->install_rule(rule);
  host_a.port().send(psn_packet(42));
  host_a.port().send(psn_packet(43));
  host_a.port().send(psn_packet(44));
  sim.run();
  // The arming packet and every successor of the flow are casualties, but
  // all of them are still mirrored first (§3.4/§3.5 integrity).
  EXPECT_TRUE(host_b.packets.empty());
  EXPECT_EQ(dumper.packets.size(), 3u);
  EXPECT_EQ(sw->fault_stats().burst_channels_started, 1u);
  EXPECT_EQ(sw->fault_stats().burst_loss_dropped, 3u);
  EXPECT_EQ(sw->roce_counters().dropped_by_event, 3u);
}

TEST_F(SwitchTest, BurstLossChannelExpires) {
  sw->register_flow(kFlow, 42);
  EventRule rule{kFlow, 42, 1, EventType::kBurstLoss};
  rule.fault.ge_p = 0.0;
  rule.fault.ge_r = 0.0;
  rule.fault.duration = 5 * kMicrosecond;
  sw->install_rule(rule);
  host_a.port().send(psn_packet(42));
  sim.run();
  EXPECT_TRUE(host_b.packets.empty());  // armed packet lost
  // Past the channel lifetime the same flow forwards cleanly again.
  sim.schedule_after(10 * kMicrosecond,
                     [this] { host_a.port().send(psn_packet(43)); });
  sim.run();
  EXPECT_EQ(host_b.packets.size(), 1u);
  EXPECT_EQ(sw->active_burst_channels(), 0u);
}

TEST_F(SwitchTest, PauseStormSendsPfcTowardSender) {
  sw->register_flow(kFlow, 42);
  EventRule rule{kFlow, 42, 1, EventType::kPauseStorm};
  rule.fault.priority = 2;
  rule.fault.duration = 25 * kMicrosecond;
  sw->install_rule(rule);
  host_a.port().send(sample_packet());
  sim.run();
  // Frames at t=0/10us/20us into the storm plus the closing resume, all
  // delivered to the matched packet's ingress port (the sender).
  std::size_t pfc = 0;
  std::optional<PfcFrame> last;
  for (const auto& pkt : host_a.packets) {
    if (is_pfc_frame(pkt)) {
      ++pfc;
      last = parse_pfc_frame(pkt);
    }
  }
  EXPECT_EQ(pfc, 4u);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->class_enable, 1u << 2);
  EXPECT_EQ(last->quanta[2], 0u);  // storm ends with an explicit resume
  EXPECT_EQ(sw->fault_stats().pause_storms, 1u);
  EXPECT_EQ(sw->fault_stats().pause_frames_sent, 4u);
  // The data packet itself still forwards: a pause storm gates the
  // receiver's egress, not the switch path.
  EXPECT_EQ(host_b.packets.size(), 1u);
}

TEST_F(SwitchTest, LinkFlapDropsQueuedAndRecovers) {
  // Slow egress toward host_b so a queue exists when the flap fires.
  // (Rebuild the topology with a 1 Gbps sink link.)
  Simulator slow_sim;
  EventInjectorSwitch slow_sw(&slow_sim, 4, EventInjectorSwitch::Options{});
  CaptureNode a(&slow_sim), b(&slow_sim);
  connect(a.port(), slow_sw.port(0), LinkParams{100.0, 10});
  connect(b.port(), slow_sw.port(1), LinkParams{1.0, 10});
  slow_sw.add_route(kFlow.src_ip, 0);
  slow_sw.add_route(kFlow.dst_ip, 1);
  slow_sw.register_flow(kFlow, 42);
  EventRule rule{kFlow, 44, 1, EventType::kLinkFlap};
  rule.fault.duration = 10 * kMicrosecond;
  rule.fault.flap_drops_queued = true;
  slow_sw.install_rule(rule);
  // #1 is serializing onto the slow link when #3 (the match, sent once the
  // first two have cleared the ingress pipeline) flaps the port — #2 sits
  // in the egress queue and is shed, the in-flight #1 completes, and #3
  // (enqueued while the port is down) is held and delivered once the port
  // comes back.
  a.port().send(psn_packet(42));
  a.port().send(psn_packet(43));
  slow_sim.schedule_after(2 * kMicrosecond,
                          [&a] { a.port().send(psn_packet(44)); });
  slow_sim.run();
  EXPECT_EQ(slow_sw.fault_stats().link_flaps, 1u);
  EXPECT_EQ(slow_sw.fault_stats().flap_queued_dropped, 1u);
  EXPECT_EQ(b.packets.size(), 2u);
  EXPECT_TRUE(slow_sw.port(1).link_up());
}

// ---------------------------------------------------------------------------
// Fused departures: a mirrored frame that leaves undelayed goes out with
// its mirror copy in one event
// ---------------------------------------------------------------------------

TEST_F(SwitchTest, UndelayedMirroredFrameLeavesInOneFusedEvent) {
  std::vector<const CaptureNode*> arrivals;
  host_b.arrivals = &arrivals;
  dumper.arrivals = &arrivals;
  const Tick latency = EventInjectorSwitch::kL2PipelineLatency +
                       EventInjectorSwitch::kEventStageLatency;
  sw->handle_packet(0, sample_packet());
  // One departure for the mirror copy and the frame together.
  EXPECT_EQ(sim.pending_events(), 1u);

  sim.run_until(latency - 1);
  EXPECT_EQ(sw->port(2).counters().tx_packets, 0u);
  EXPECT_EQ(sw->port(1).counters().tx_packets, 0u);
  sim.run_until(latency);
  EXPECT_EQ(sw->port(2).counters().tx_packets, 1u);
  EXPECT_EQ(sw->port(1).counters().tx_packets, 1u);
  // What is left is the two deliveries: with nothing queued behind them,
  // the ports' serialization-complete events are not scheduled.
  EXPECT_EQ(sim.pending_events(), 2u);

  sim.run();
  // Equal sizes and links: both copies arrive on one tick, in send order.
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], &dumper);
  EXPECT_EQ(arrivals[1], &host_b);
  EXPECT_EQ(sw->roce_counters().mirrored, 1u);
  EXPECT_EQ(sw->roce_counters().roce_tx, 1u);
}

TEST_F(SwitchTest, DelayDuplicateReorderAndDropKeepSeparateMirrorEvents) {
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kDelay, 1000, {}});
  sw->install_rule(EventRule{kFlow, 43, 1, EventType::kDuplicate, 0, {}});
  sw->install_rule(EventRule{kFlow, 44, 1, EventType::kReorder, 0, {}});
  sw->install_rule(EventRule{kFlow, 45, 1, EventType::kDrop, 0, {}});
  const auto pending_after = [this](std::uint32_t psn) {
    const std::size_t before = sim.pending_events();
    sw->handle_packet(0, psn_packet(psn));
    return sim.pending_events() - before;
  };
  EXPECT_EQ(pending_after(42), 2u);  // mirror send, delayed forward
  EXPECT_EQ(pending_after(43), 3u);  // mirror send, clone, forward
  EXPECT_EQ(pending_after(44), 2u);  // mirror send, reorder flush timer
  EXPECT_EQ(pending_after(45), 1u);  // mirror send only
  // 46 releases the held 44: its own departure fuses, 44 follows a tick
  // later, and 44's flush timer is cancelled.
  EXPECT_EQ(pending_after(46), 1u);
  sim.run();

  std::vector<std::uint32_t> forwarded;
  for (const Packet& pkt : host_b.packets) {
    forwarded.push_back(parse_roce(pkt)->bth.psn);
  }
  EXPECT_EQ(forwarded, (std::vector<std::uint32_t>{43, 46, 43, 44, 42}));
  ASSERT_EQ(dumper.packets.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(parse_roce(dumper.packets[i])->bth.psn, 42 + i);
    EXPECT_EQ(extract_mirror_meta(dumper.packets[i]).mirror_seq, i);
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism of every stateful fault (same config + seed =>
// byte-identical deterministic telemetry), plus the per-type activity
// counters the report surfaces.
// ---------------------------------------------------------------------------

struct FaultCase {
  const char* name;
  DataPacketEvent event;
  const char* expected_counter;  ///< must be nonzero in telemetry
};

class FaultDeterminismTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultDeterminismTest, RunsAreByteIdenticalAndCounterFires) {
  const FaultCase& fault = GetParam();
  TestConfig cfg;
  cfg.traffic.num_connections = 1;
  cfg.traffic.num_msgs_per_qp = 4;
  cfg.traffic.message_size = 10240;
  cfg.traffic.mtu = 1024;
  cfg.traffic.data_pkt_events.push_back(fault.event);

  const TestResult first = Orchestrator(cfg).run();
  const TestResult second = Orchestrator(cfg).run();
  EXPECT_TRUE(first.finished) << fault.name;
  EXPECT_TRUE(first.integrity.ok()) << fault.name << ": "
                                    << first.integrity.to_string();
  EXPECT_EQ(telemetry::serialize_deterministic(first.telemetry),
            telemetry::serialize_deterministic(second.telemetry))
      << fault.name << ": same config+seed diverged";
  const auto it = first.telemetry.counters.find(fault.expected_counter);
  ASSERT_NE(it, first.telemetry.counters.end())
      << fault.name << ": " << fault.expected_counter << " not scraped";
  EXPECT_GT(it->second, 0u) << fault.name;
}

FaultCase fault_cases[] = {
    {"duplicate", DataPacketEvent{1, 3, EventType::kDuplicate, 1},
     "injector.duplicates_emitted"},
    {"burst-loss",
     [] {
       DataPacketEvent ev{1, 3, EventType::kBurstLoss, 1};
       ev.fault.ge_p = 0.3;
       ev.fault.ge_r = 0.5;
       ev.fault.duration = 20 * kMicrosecond;
       return ev;
     }(),
     "injector.burst_channels_started"},
    {"pause-storm",
     [] {
       DataPacketEvent ev{1, 3, EventType::kPauseStorm, 1};
       ev.fault.duration = 50 * kMicrosecond;
       return ev;
     }(),
     "rnic.requester.pause_frames_rx"},
    {"link-flap",
     [] {
       DataPacketEvent ev{1, 3, EventType::kLinkFlap, 1};
       ev.fault.duration = 10 * kMicrosecond;
       return ev;
     }(),
     "injector.link_flaps"},
};

INSTANTIATE_TEST_SUITE_P(AllFaults, FaultDeterminismTest,
                         ::testing::ValuesIn(fault_cases),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_F(SwitchTest, ControlPacketsAreNotInjectable) {
  // ACKs match no event rules even if one is installed for their PSN.
  sw->register_flow(kFlow, 42);
  sw->install_rule(EventRule{kFlow, 42, 1, EventType::kDrop});
  RocePacketSpec spec;
  spec.src_ip = kFlow.src_ip;
  spec.dst_ip = kFlow.dst_ip;
  spec.dest_qpn = kFlow.dst_qpn;
  spec.psn = 42;
  spec.opcode = IbOpcode::kAcknowledge;
  spec.aeth = Aeth::ack(0);
  host_a.port().send(build_roce_packet(spec));
  sim.run();
  EXPECT_EQ(host_b.packets.size(), 1u);  // forwarded, not dropped
  EXPECT_EQ(sw->roce_counters().events_applied, 0u);
}

}  // namespace
}  // namespace lumina
