// Property-based integration tests: randomized-but-seeded workloads and
// event sets, checked against invariants that must hold for ANY
// configuration:
//
//   P1  traffic completes (no deadlock) and the capture passes integrity;
//   P2  every injected first-round drop yields exactly one recovery
//       episode, each recovered (retransmission observed);
//   P3  the trace is Go-Back-N compliant on every NIC model (§6.1);
//   P4  counters are consistent with the trace on bug-free NIC models;
//   P5  reruns with the same seed are bit-identical (reproducibility, the
//       tool's core promise).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analyzers/counter_analyzer.h"
#include "analyzers/gbn_fsm.h"
#include "analyzers/retrans_perf.h"
#include "orchestrator/orchestrator.h"
#include "util/random.h"

namespace lumina {
namespace {

struct RandomScenario {
  TestConfig cfg;
  int distinct_drops = 0;
};

RandomScenario make_scenario(std::uint64_t seed) {
  Rng rng(seed);
  RandomScenario scenario;
  TestConfig& cfg = scenario.cfg;

  const NicType nics[] = {NicType::kCx5, NicType::kCx6Dx};  // bug-free paths
  cfg.requester().nic_type = nics[rng.next_below(2)];
  cfg.responder().nic_type = cfg.requester().nic_type;

  const RdmaVerb verbs[] = {RdmaVerb::kWrite, RdmaVerb::kRead,
                            RdmaVerb::kSendRecv};
  cfg.traffic.verb = verbs[rng.next_below(3)];
  cfg.traffic.num_connections = static_cast<int>(rng.next_in(1, 4));
  cfg.traffic.num_msgs_per_qp = static_cast<int>(rng.next_in(1, 4));
  cfg.traffic.message_size =
      static_cast<std::uint64_t>(rng.next_in(1, 24)) * 1024;
  cfg.traffic.mtu = 1024;
  cfg.traffic.tx_depth = static_cast<int>(rng.next_in(1, 3));
  cfg.traffic.barrier_sync = rng.next_bool(0.3);
  cfg.traffic.min_retransmit_timeout = 18;  // fast retrans stays observable

  // Random single-shot events: at most ONE drop per connection — a second
  // iter=1 drop on the same flow may never fire because the first drop's
  // retransmission round advances ITER past 1 (Fig. 3 semantics) — plus
  // some ECN marks. Keep drops off the last packet of the stream so fast
  // retransmission (not RTO) recovers them.
  const std::uint32_t total_pkts = static_cast<std::uint32_t>(
      (cfg.traffic.message_size + 1023) / 1024 *
      static_cast<std::uint32_t>(cfg.traffic.num_msgs_per_qp));
  std::set<std::pair<int, std::uint32_t>> used;
  std::set<int> dropped_conns;
  const int events = static_cast<int>(rng.next_below(4));
  for (int e = 0; e < events; ++e) {
    const int conn = static_cast<int>(rng.next_in(1, cfg.traffic.num_connections));
    if (total_pkts < 3) break;
    const auto psn =
        static_cast<std::uint32_t>(rng.next_in(1, total_pkts - 1));
    if (!used.insert({conn, psn}).second) continue;
    const bool drop = rng.next_bool(0.6) && !dropped_conns.contains(conn);
    if (drop) dropped_conns.insert(conn);
    cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
        conn, psn, drop ? EventType::kDrop : EventType::kEcn, 1});
    if (drop) ++scenario.distinct_drops;
  }
  return scenario;
}

class RandomScenarioTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomScenarioTest, InvariantsHold) {
  const RandomScenario scenario = make_scenario(GetParam());
  Orchestrator orch(scenario.cfg);
  const TestResult& result = orch.run();

  // P1: completion + integrity.
  ASSERT_TRUE(result.finished) << "seed " << GetParam();
  EXPECT_TRUE(result.integrity.ok()) << result.integrity.to_string();
  for (const auto& flow : result.flows) {
    EXPECT_EQ(flow.completed(),
              static_cast<std::size_t>(scenario.cfg.traffic.num_msgs_per_qp));
    EXPECT_FALSE(flow.aborted);
  }

  // P2: one recovered episode per injected drop.
  const auto episodes =
      analyze_retransmissions(result.trace, scenario.cfg.traffic.verb);
  EXPECT_EQ(episodes.size(),
            static_cast<std::size_t>(scenario.distinct_drops));
  for (const auto& ep : episodes) {
    EXPECT_TRUE(ep.retransmit_time.has_value())
        << "unrecovered drop at PSN " << ep.psn;
  }

  // P3: Go-Back-N compliance.
  const auto gbn = check_gbn_compliance(result.trace, scenario.cfg.traffic.verb);
  EXPECT_TRUE(gbn.compliant())
      << (gbn.violations.empty() ? ""
                                 : gbn.violations[0].rule + ": " +
                                       gbn.violations[0].description);

  // P4: counter consistency on bug-free models.
  std::vector<Ipv4Address> req_ips, resp_ips;
  for (const auto& c : result.connections) {
    req_ips.push_back(c.requester.ip);
    resp_ips.push_back(c.responder.ip);
  }
  const auto counters = check_counters(
      result.trace, scenario.cfg.traffic.verb, result.requester_counters(),
      result.responder_counters(), req_ips, resp_ips);
  EXPECT_TRUE(counters.consistent())
      << (counters.inconsistencies.empty()
              ? ""
              : counters.inconsistencies[0].counter + " " +
                    counters.inconsistencies[0].note);
}

TEST_P(RandomScenarioTest, RerunsAreBitIdentical) {
  const RandomScenario scenario = make_scenario(GetParam());
  Orchestrator a(scenario.cfg);
  Orchestrator b(scenario.cfg);
  const TestResult& ra = a.run();
  const TestResult& rb = b.run();
  ASSERT_EQ(ra.trace.size(), rb.trace.size());
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    EXPECT_TRUE(
        std::ranges::equal(ra.trace[i].pkt.bytes, rb.trace[i].pkt.bytes))
        << "packet " << i;
    EXPECT_EQ(ra.trace[i].time(), rb.trace[i].time());
  }
  EXPECT_EQ(ra.duration, rb.duration);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScenarioTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace lumina
