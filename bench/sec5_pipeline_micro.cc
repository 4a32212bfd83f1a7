// §5 microbenchmarks (google-benchmark): the hot paths of the simulated
// data plane — packet serialization/parsing, iCRC, event-table lookup,
// ITER tracking, mirroring, and raw simulator event throughput.
//
// The paper reports the Tofino pipeline adds <0.4 us latency and that
// ~1 MB of table memory holds 100 K events for 10 K connections; the
// *_EventTable benchmarks below populate exactly that rule count.
#include <benchmark/benchmark.h>

#include "analyzers/gbn_fsm.h"
#include "config/yaml_lite.h"
#include "injector/event_table.h"
#include "injector/mirror.h"
#include "orchestrator/orchestrator.h"
#include "packet/icrc.h"
#include "packet/roce_packet.h"
#include "sim/simulator.h"

namespace lumina {
namespace {

RocePacketSpec sample_spec(std::uint32_t payload) {
  RocePacketSpec spec;
  spec.src_mac = MacAddress::from_u48(0x0200000000aa);
  spec.dst_mac = MacAddress::from_u48(0x0200000000bb);
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kWriteOnly;
  spec.dest_qpn = 0x1234;
  spec.psn = 1000;
  spec.reth = Reth{0xdeadbeef, 0x77, payload};
  spec.payload_len = payload;
  return spec;
}

void BM_BuildRocePacket(benchmark::State& state) {
  const auto spec = sample_spec(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_roce_packet(spec));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (state.range(0) + 70));
}
BENCHMARK(BM_BuildRocePacket)->Arg(0)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ParseRocePacket(benchmark::State& state) {
  const Packet pkt = build_roce_packet(sample_spec(1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_roce(pkt));
  }
}
BENCHMARK(BM_ParseRocePacket);

void BM_VerifyIcrc(benchmark::State& state) {
  const Packet pkt =
      build_roce_packet(sample_spec(static_cast<std::uint32_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_icrc(pkt));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pkt.size()));
}
BENCHMARK(BM_VerifyIcrc)->Arg(64)->Arg(1024)->Arg(4096);

void BM_EventTableLookup(benchmark::State& state) {
  // §5 scale: 100K events across 10K connections in ~1 MB of table memory.
  EventTable table;
  const int connections = 10'000;
  const int events = 100'000;
  for (int e = 0; e < events; ++e) {
    EventRule rule;
    rule.flow = FlowKey{Ipv4Address{1}, Ipv4Address{2},
                        static_cast<std::uint32_t>(e % connections)};
    rule.psn = static_cast<std::uint32_t>(1000 + e / connections);
    rule.iter = 1;
    rule.action = EventType::kDrop;
    table.install(rule);
  }
  std::uint32_t qpn = 0;
  for (auto _ : state) {
    // Miss path (the common case: most packets match no rule).
    benchmark::DoNotOptimize(
        table.peek(FlowKey{Ipv4Address{1}, Ipv4Address{2}, qpn}, 1, 1));
    qpn = (qpn + 1) % connections;
  }
}
BENCHMARK(BM_EventTableLookup);

void BM_IterTrackerObserve(benchmark::State& state) {
  IterTracker tracker;
  const FlowKey flow{Ipv4Address{1}, Ipv4Address{2}, 7};
  tracker.register_flow(flow, 1);
  std::uint32_t psn = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.observe(flow, psn++));
  }
}
BENCHMARK(BM_IterTrackerObserve);

void BM_MirrorClone(benchmark::State& state) {
  MirrorEngine engine(42);
  engine.set_targets({2, 3});
  const Packet pkt = build_roce_packet(sample_spec(1024));
  Tick ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.mirror(pkt, EventType::kNone, ts++));
  }
}
BENCHMARK(BM_MirrorClone);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int remaining = 10'000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule_after(10, tick);
    };
    sim.schedule_after(0, tick);
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_YamlParseListing2(benchmark::State& state) {
  const std::string doc = R"(traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 10
  mtu: 1024
  message-size: 10240
  data-pkt-events:
  - {qpn: 1, psn: 4, type: ecn, iter: 1}
  - {qpn: 2, psn: 5, type: drop, iter: 1}
  - {qpn: 2, psn: 5, type: drop, iter: 2}
)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_yaml(doc));
  }
}
BENCHMARK(BM_YamlParseListing2);

void BM_GbnFsmCheck(benchmark::State& state) {
  // A realistic reconstructed trace: one loss + recovery in 10 messages.
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.num_msgs_per_qp = 10;
  cfg.traffic.message_size = 10240;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 5, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check_gbn_compliance(result.trace, RdmaVerb::kWrite));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_GbnFsmCheck);

void BM_FullTestbedRun(benchmark::State& state) {
  // End-to-end cost of one small orchestrated experiment (wall clock).
  for (auto _ : state) {
    TestConfig cfg;
    cfg.requester().nic_type = NicType::kCx5;
    cfg.responder().nic_type = NicType::kCx5;
    cfg.traffic.message_size = 10240;
    Orchestrator orch(cfg);
    benchmark::DoNotOptimize(orch.run().trace.size());
  }
}
BENCHMARK(BM_FullTestbedRun);

}  // namespace
}  // namespace lumina

BENCHMARK_MAIN();
