// Scenario: drive Lumina from a YAML test configuration — the workflow of
// the real tool, where Listing 1 (hosts) and Listing 2 (traffic + events)
// live in a config file.
//
//   $ ./build/examples/yaml_driven_test examples/configs/double_drop.yaml
//   $ ./build/examples/yaml_driven_test          # uses the built-in config
//
// The example also dumps the reconstructed trace to lumina_trace.pcap in
// the working directory, so you can open it in wireshark/tcpdump.
#include <cstdio>
#include <string>

#include "analyzers/retrans_perf.h"
#include "config/yaml_lite.h"
#include "orchestrator/orchestrator.h"
#include "packet/pcap_writer.h"
#include "util/file_io.h"

using namespace lumina;

namespace {

constexpr const char* kBuiltinConfig = R"(
# Listing 1 + Listing 2 in one document.
requester:
  nic:
    type: cx5
    ip-list: [10.0.0.2/24, 10.0.0.12/24]
  roce-parameters:
    dcqcn-rp-enable: False
    dcqcn-np-enable: True
    min-time-between-cnps: 0
    adaptive-retrans: False
responder:
  nic:
    type: cx5
    ip-list: [10.0.1.2/24]
traffic:
  num-connections: 2
  rdma-verb: write
  num-msgs-per-qp: 10
  mtu: 1024
  message-size: 10240
  multi-gid: true
  barrier-sync: true
  tx-depth: 1
  min-retransmit-timeout: 14
  max-retransmit-retry: 7
  data-pkt-events:
  # Mark ECN on the 4th pkt of the 1st QP conn
  - {qpn: 1, psn: 4, type: ecn, iter: 1}
  # Drop the 5th pkt of the 2nd QP conn
  - {qpn: 2, psn: 5, type: drop, iter: 1}
  # Drop the retransmitted 5th pkt of the 2nd QP conn
  - {qpn: 2, psn: 5, type: drop, iter: 2}
)";

}  // namespace

int main(int argc, char** argv) {
  TestConfig cfg;
  try {
    const YamlNode root = argc > 1 ? parse_yaml_file(argv[1])
                                   : parse_yaml(kBuiltinConfig);
    cfg = load_test_config(root);
  } catch (const YamlError& error) {
    std::fprintf(stderr, "config error: %s\n", error.what());
    return 1;
  }

  std::printf("loaded: %d connections, verb=%s, %zu injected events\n",
              cfg.traffic.num_connections, to_string(cfg.traffic.verb).c_str(),
              cfg.traffic.data_pkt_events.size());

  Orchestrator orch(cfg);
  const TestResult& result = orch.run();
  std::printf("integrity: %s\n", result.integrity.to_string().c_str());

  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    std::printf("  conn %zu: %zu msgs, avg MCT %.2f us\n", i + 1,
                result.flows[i].completed(), result.flows[i].avg_mct_us());
  }

  const auto episodes =
      analyze_retransmissions(result.trace, cfg.traffic.verb);
  std::printf("retransmission episodes: %zu\n", episodes.size());
  for (const auto& ep : episodes) {
    std::printf("  PSN %u iter %u -> %s recovery\n", ep.psn, ep.iter,
                ep.timeout_recovery ? "timeout" : "NACK");
  }

  // Persist the reconstructed trace as pcap (ns resolution, trimmed).
  std::string pcap = pcap_file_header();
  for (const auto& p : result.trace) {
    append_pcap_record(pcap, p.pkt.bytes, p.time(), p.orig_len);
  }
  if (!write_file("lumina_trace.pcap", pcap)) {
    std::fprintf(stderr, "error: failed to write lumina_trace.pcap\n");
    return 1;
  }
  std::printf("wrote %zu packets to lumina_trace.pcap\n", result.trace.size());
  return result.integrity.ok() ? 0 : 1;
}
