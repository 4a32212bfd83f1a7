#include "fuzz/targets.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "analyzers/counter_analyzer.h"
#include "analyzers/retrans_perf.h"
#include "fuzz/scorers.h"
#include "packet/icrc.h"
#include "packet/roce_packet.h"
#include "util/time.h"

namespace lumina {
namespace {

TestConfig base_config(NicType nic) {
  TestConfig cfg;
  cfg.requester().nic_type = nic;
  cfg.responder().nic_type = nic;
  cfg.requester().ip_list.push_back(Ipv4Address::from_octets(10, 0, 0, 1));
  cfg.responder().ip_list.push_back(Ipv4Address::from_octets(10, 0, 0, 2));
  return cfg;
}

/// Counter-consistency check of the requester/responder pair, keyed by
/// connection 1's addresses (unset when the run set up no connection).
CounterReport check_pair_counters(const TestConfig& cfg,
                                  const TestResult& result) {
  const bool none = result.connections.empty();
  return check_counters(
      result.trace, cfg.traffic.verb, result.requester_counters(),
      result.responder_counters(),
      {none ? Ipv4Address{} : result.connections[0].requester.ip},
      {none ? Ipv4Address{} : result.connections[0].responder.ip});
}

}  // namespace

FuzzTarget make_noisy_neighbor_target(NicType nic) {
  FuzzTarget target;

  target.make_initial = [nic](Rng& rng) {
    TestConfig cfg = base_config(nic);
    cfg.traffic.verb = RdmaVerb::kRead;
    cfg.traffic.num_connections = static_cast<int>(rng.next_in(8, 40));
    cfg.traffic.num_msgs_per_qp = static_cast<int>(rng.next_in(2, 10));
    cfg.traffic.message_size = 20 * 1024;
    cfg.traffic.mtu = 1024;
    const int injected =
        static_cast<int>(rng.next_in(0, cfg.traffic.num_connections / 2));
    for (int i = 0; i < injected; ++i) {
      cfg.traffic.data_pkt_events.push_back(
          DataPacketEvent{i + 1, 5, EventType::kDrop, 1});
    }
    return cfg;
  };

  target.mutate = [](TestConfig& cfg, Rng& rng) {
    switch (rng.next_below(3)) {
      case 0:  // adjust the number of connections
        cfg.traffic.num_connections = std::clamp(
            cfg.traffic.num_connections + static_cast<int>(rng.next_in(-8, 8)),
            4, 64);
        break;
      case 1:  // adjust message size
        cfg.traffic.message_size = static_cast<std::uint64_t>(
            rng.next_in(4, 64)) * 1024;
        break;
      default:  // adjust how many connections get a drop injected
        break;
    }
    const int max_injected = cfg.traffic.num_connections;
    int injected = static_cast<int>(cfg.traffic.data_pkt_events.size());
    injected = std::clamp(injected + static_cast<int>(rng.next_in(-4, 6)), 0,
                          max_injected);
    cfg.traffic.data_pkt_events.clear();
    for (int i = 0; i < injected; ++i) {
      cfg.traffic.data_pkt_events.push_back(
          DataPacketEvent{i + 1, 5, EventType::kDrop, 1});
    }
  };

  // Multi-objective (§4): innocent-flow MCT inflation dominates; victim
  // rx discards contribute (the counter that exposed the bug).
  target.score = make_fitness(
      {{"innocent-mct", 1.0}, {"rnic.requester.rx_discards_phy", 0.1}});

  target.is_anomaly = [](const TestConfig& cfg, const TestResult& result) {
    if (cfg.traffic.data_pkt_events.empty()) return false;
    const double baseline_us = 2000.0;  // generous bound for clean Read MCT
    return eval_fitness_metric("innocent-mct", cfg, result) >
           50.0 * baseline_us;
  };

  return target;
}

FuzzTarget make_lossy_network_target(NicType nic) {
  FuzzTarget target;

  target.make_initial = [nic](Rng& rng) {
    TestConfig cfg = base_config(nic);
    const int verb = static_cast<int>(rng.next_below(3));
    cfg.traffic.verb = verb == 0   ? RdmaVerb::kWrite
                       : verb == 1 ? RdmaVerb::kSendRecv
                                   : RdmaVerb::kRead;
    cfg.traffic.num_connections = static_cast<int>(rng.next_in(1, 4));
    cfg.traffic.num_msgs_per_qp = static_cast<int>(rng.next_in(1, 4));
    cfg.traffic.message_size = static_cast<std::uint64_t>(
        rng.next_in(8, 128)) * 1024;
    cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
        1, static_cast<std::uint32_t>(rng.next_in(1, 8)), EventType::kDrop,
        1});
    return cfg;
  };

  target.mutate = [](TestConfig& cfg, Rng& rng) {
    if (!cfg.traffic.data_pkt_events.empty() && rng.next_bool(0.5)) {
      auto& ev = cfg.traffic.data_pkt_events[rng.next_below(
          cfg.traffic.data_pkt_events.size())];
      ev.psn = static_cast<std::uint32_t>(rng.next_in(1, 32));
      ev.type = rng.next_bool(0.3) ? EventType::kEcn : EventType::kDrop;
    } else {
      cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
          static_cast<int>(rng.next_in(1, cfg.traffic.num_connections)),
          static_cast<std::uint32_t>(rng.next_in(1, 16)), EventType::kDrop,
          1});
    }
  };

  target.score = [](const TestConfig& cfg, const TestResult& result) {
    const auto episodes = analyze_retransmissions(result.trace,
                                                  cfg.traffic.verb);
    double worst_us = 0;
    for (const auto& ep : episodes) {
      if (const auto total = ep.total_latency()) {
        worst_us = std::max(worst_us, to_us(*total));
      }
    }
    const auto counters = check_pair_counters(cfg, result);
    return worst_us +
           1000.0 * static_cast<double>(counters.inconsistencies.size());
  };

  target.is_anomaly = [](const TestConfig& cfg, const TestResult& result) {
    return !check_pair_counters(cfg, result).consistent();
  };

  return target;
}

namespace {

void record_mismatch(CrcDifferentialOutcome& out, const std::string& what) {
  ++out.mismatches;
  if (out.first_mismatch.empty()) out.first_mismatch = what;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> buf(len);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  return buf;
}

}  // namespace

CrcDifferentialOutcome run_crc_differential(std::uint64_t seed,
                                            int iterations) {
  Rng rng(seed);
  CrcDifferentialOutcome out;
  for (int it = 0; it < iterations; ++it) {
    ++out.iterations;
    // Lengths cluster where the slice-by-8 edge cases live: empty, shorter
    // than one 8-byte step, just around multiples of 8, and jumbo-ish.
    const std::size_t len = static_cast<std::size_t>(rng.next_bool(0.3)
        ? rng.next_in(0, 16)
        : rng.next_in(17, 2048));
    // Random alignment: carve the test span out of a larger allocation at
    // an arbitrary offset so the memcpy loads see every phase.
    const std::size_t lead = static_cast<std::size_t>(rng.next_in(0, 7));
    const std::vector<std::uint8_t> backing =
        random_bytes(rng, lead + len);
    const std::span<const std::uint8_t> data =
        std::span<const std::uint8_t>(backing).subspan(lead);

    // (1) The dispatched engine (CLMUL on spans of 64 B or more where the
    // CPU has it, slice-by-8 otherwise) vs bit-at-a-time, random seed
    // included.
    const std::uint32_t fast = crc32(data);
    if (fast != crc32_reference(data)) {
      record_mismatch(out, "crc32 != crc32_reference at len " +
                               std::to_string(len));
    }
    const std::uint32_t seed32 =
        static_cast<std::uint32_t>(rng.next_u64());
    if (crc32(data, seed32) != crc32_reference(data, seed32)) {
      record_mismatch(out, "seeded crc32 != reference at len " +
                               std::to_string(len));
    }

    // (2) Segmented streaming: chaining crc32_update over a random
    // multi-way split must match the one-shot CRC.
    std::uint32_t state = kCrcInit;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t chunk = static_cast<std::size_t>(
          rng.next_in(1, static_cast<std::int64_t>(data.size() - pos)));
      state = crc32_update(state, data.subspan(pos, chunk));
      pos += chunk;
    }
    if (crc32_final(state) != fast) {
      record_mismatch(out, "segmented crc32_update != one-shot at len " +
                               std::to_string(len));
    }

    // (3) Copy-free compute_icrc vs the pseudo-packet reference, over a
    // random frame and l3 offset (including frames too short to reach
    // some masked offsets).
    if (!data.empty()) {
      const std::size_t l3_offset = static_cast<std::size_t>(
          rng.next_in(0, static_cast<std::int64_t>(len - 1)));
      if (compute_icrc(data, l3_offset) !=
          compute_icrc_reference(data, l3_offset)) {
        record_mismatch(out, "compute_icrc != reference at l3_offset " +
                                 std::to_string(l3_offset));
      }
    }

    // (4) set_mig_req's trailer update: flipping MigReq on a built frame
    // must leave a trailer the full recompute agrees with, and must match
    // a frame built with the flipped value.
    RocePacketSpec spec;
    spec.src_mac = MacAddress::from_u48(rng.next_u64() & 0xffffffffffffULL);
    spec.dst_mac = MacAddress::from_u48(rng.next_u64() & 0xffffffffffffULL);
    spec.src_ip.value = static_cast<std::uint32_t>(rng.next_u64());
    spec.dst_ip.value = static_cast<std::uint32_t>(rng.next_u64());
    spec.mig_req = rng.next_bool(0.5);
    spec.psn = static_cast<std::uint32_t>(rng.next_below(1 << 24));
    spec.payload_len = static_cast<std::uint32_t>(rng.next_in(0, 1500));
    Packet pkt = build_roce_packet(spec);
    set_mig_req(pkt, !spec.mig_req);
    if (!verify_icrc(pkt)) {
      record_mismatch(out, "set_mig_req broke the iCRC");
    }
    RocePacketSpec flipped = spec;
    flipped.mig_req = !spec.mig_req;
    if (pkt.bytes != build_roce_packet(flipped).bytes) {
      record_mismatch(out, "rewritten frame != rebuilt frame");
    }
  }
  return out;
}

FuzzTarget make_crc_differential_target(NicType nic) {
  FuzzTarget target;
  // The batch outcome has to flow from mutate() (which has the Rng) to
  // score()/is_anomaly(); the shared state is per-target, matching the
  // one-target-per-GeneticFuzzer ownership model.
  auto state = std::make_shared<CrcDifferentialOutcome>();

  target.make_initial = [nic](Rng& rng) {
    TestConfig cfg = base_config(nic);
    cfg.traffic.verb = RdmaVerb::kWrite;
    cfg.traffic.num_connections = 1;
    cfg.traffic.num_msgs_per_qp = 1;
    cfg.traffic.message_size = 4 * 1024;
    // A corrupt event drives the simulated receive path through
    // verify_icrc on every run.
    cfg.traffic.data_pkt_events.push_back(DataPacketEvent{
        1, static_cast<std::uint32_t>(rng.next_in(0, 3)),
        EventType::kCorrupt, 1});
    return cfg;
  };

  target.mutate = [state](TestConfig& cfg, Rng& rng) {
    const CrcDifferentialOutcome batch =
        run_crc_differential(rng.next_u64(), 64);
    state->iterations += batch.iterations;
    if (batch.mismatches > 0 && state->first_mismatch.empty()) {
      state->first_mismatch = batch.first_mismatch;
    }
    state->mismatches += batch.mismatches;
    if (!cfg.traffic.data_pkt_events.empty()) {
      cfg.traffic.data_pkt_events[0].psn =
          static_cast<std::uint32_t>(rng.next_in(0, 3));
    }
  };

  target.score = [state](const TestConfig&, const TestResult&) {
    return static_cast<double>(state->mismatches);
  };

  target.is_anomaly = [state](const TestConfig&, const TestResult&) {
    return state->mismatches > 0;
  };

  return target;
}


namespace {

/// The full event vocabulary the scenario target mutates over (kNone is
/// not a useful injection).
constexpr EventType kScenarioVocabulary[] = {
    EventType::kDrop,      EventType::kEcn,       EventType::kCorrupt,
    EventType::kRewriteMigReq, EventType::kDelay, EventType::kReorder,
    EventType::kDuplicate, EventType::kBurstLoss, EventType::kPauseStorm,
    EventType::kLinkFlap,
};

/// One random event intent over the full vocabulary. Every duration-like
/// field is whole microseconds and every GE probability is a tenth, so the
/// intent is exactly representable in the canonical YAML encoding.
DataPacketEvent random_scenario_event(Rng& rng, int num_connections) {
  DataPacketEvent ev;
  ev.qpn = static_cast<int>(rng.next_in(1, num_connections));
  ev.psn = static_cast<std::uint32_t>(rng.next_in(1, 6));
  ev.iter = 1;
  ev.type = kScenarioVocabulary[rng.next_below(
      std::size(kScenarioVocabulary))];
  switch (ev.type) {
    case EventType::kDelay:
      ev.delay = rng.next_in(5, 100) * kMicrosecond;
      break;
    case EventType::kBurstLoss:
      ev.fault.ge_p = static_cast<double>(rng.next_in(1, 6)) / 10.0;
      ev.fault.ge_r = static_cast<double>(rng.next_in(2, 8)) / 10.0;
      ev.fault.duration = rng.next_in(0, 50) * kMicrosecond;
      break;
    case EventType::kPauseStorm:
      ev.fault.priority = 0;  // QPs default to traffic class 0
      ev.fault.duration = rng.next_in(20, 200) * kMicrosecond;
      break;
    case EventType::kLinkFlap:
      ev.fault.duration = rng.next_in(1, 30) * kMicrosecond;
      ev.fault.flap_drops_queued = rng.next_bool(0.5);
      break;
    default:
      break;
  }
  return ev;
}

}  // namespace

FuzzTarget make_scenario_target(NicType nic, int num_hosts) {
  FuzzTarget target;
  const int hosts = std::max(num_hosts, 2);

  target.make_initial = [nic, hosts](Rng& rng) {
    TestConfig cfg;
    for (int h = 0; h < hosts; ++h) {
      cfg.host_at(static_cast<std::size_t>(h)).nic_type = nic;
    }
    // Incast: every non-victim host drives one flow at host 0.
    for (int h = 1; h < hosts; ++h) {
      cfg.connections.push_back(ConnectionSpec{h, 0});
    }
    cfg.traffic.num_connections = hosts - 1;
    cfg.traffic.verb = RdmaVerb::kWrite;
    cfg.traffic.mtu = 1024;
    cfg.traffic.num_msgs_per_qp = static_cast<int>(rng.next_in(2, 6));
    cfg.traffic.message_size =
        static_cast<std::uint64_t>(rng.next_in(4, 32)) * 1024;
    const int events = static_cast<int>(rng.next_in(1, 3));
    for (int i = 0; i < events; ++i) {
      cfg.traffic.data_pkt_events.push_back(
          random_scenario_event(rng, cfg.traffic.num_connections));
    }
    return cfg;
  };

  target.mutate = [](TestConfig& cfg, Rng& rng) {
    auto& events = cfg.traffic.data_pkt_events;
    switch (rng.next_below(5)) {
      case 0:
        cfg.traffic.message_size =
            static_cast<std::uint64_t>(rng.next_in(4, 64)) * 1024;
        break;
      case 1:
        cfg.traffic.num_msgs_per_qp = static_cast<int>(rng.next_in(1, 8));
        break;
      case 2:  // replace one event wholesale
        if (!events.empty()) {
          events[rng.next_below(events.size())] =
              random_scenario_event(rng, cfg.traffic.num_connections);
          break;
        }
        [[fallthrough]];
      case 3:  // grow the event list (capped)
        if (events.size() < 4) {
          events.push_back(
              random_scenario_event(rng, cfg.traffic.num_connections));
        }
        break;
      default:  // shrink, keeping at least one intent alive
        if (events.size() > 1) {
          events.erase(events.begin() +
                       static_cast<std::ptrdiff_t>(
                           rng.next_below(events.size())));
        }
        break;
    }
  };

  target.score = make_fitness({
      // Victim-side damage dominates; fault activity keeps gradient when
      // MCTs plateau. All counter terms read 0 until the fault fires.
      {"mct-mean", 1.0},
      {"incomplete-messages", 500.0},
      {"injector.dropped_by_event", 25.0},
      {"injector.pause_frames_sent", 10.0},
      {"injector.flap_queued_dropped", 25.0},
      {"sum:.paused_ns", 1e-3},
      {"sum:.retransmitted_packets", 5.0},
  });

  target.is_anomaly = [](const TestConfig&, const TestResult& result) {
    bool aborted = false;
    for (const auto& flow : result.flows) aborted = aborted || flow.aborted;
    return !result.integrity.ok() || aborted;
  };

  return target;
}

std::optional<FuzzTarget> make_fuzz_target(const std::string& name,
                                           NicType nic,
                                           int scenario_hosts) {
  if (name == "noisy-neighbor") return make_noisy_neighbor_target(nic);
  if (name == "lossy-network") return make_lossy_network_target(nic);
  if (name == "crc-differential") return make_crc_differential_target(nic);
  if (name == "scenario") return make_scenario_target(nic, scenario_hosts);
  return std::nullopt;
}

}  // namespace lumina
