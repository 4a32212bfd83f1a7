// Typed test configuration — the C++ equivalent of the paper's Listing 1
// (host configuration) and Listing 2 (traffic and event configuration).
//
// Configs can be constructed programmatically (benches, fuzzer) or loaded
// from YAML text identical in shape to the paper's listings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/yaml_lite.h"
#include "packet/addresses.h"
#include "packet/roce_packet.h"
#include "util/time.h"

namespace lumina {

enum class RdmaVerb { kSendRecv, kWrite, kRead, kFetchAdd, kCmpSwap };

std::string to_string(RdmaVerb verb);
std::optional<RdmaVerb> parse_verb(const std::string& text);

/// The four RNICs the paper tests (§5).
/// The four hardware RNICs the paper tests, plus a synthetic soft-RoCE
/// (rxe-like) software stack: RoCE over a plain Ethernet NIC, with
/// software-interrupt-scale pipeline latencies and none of the hardware
/// offload bugs — the interop benches use it as a tolerant baseline.
enum class NicType { kCx4Lx, kCx5, kCx6Dx, kE810, kSoftRoce };

std::string to_string(NicType nic);
std::optional<NicType> parse_nic_type(const std::string& text);

/// RoCE stack knobs applied before traffic starts (Listing 1).
struct RoceParameters {
  bool dcqcn_rp_enable = true;
  bool dcqcn_np_enable = true;
  /// Minimum interval between CNPs at the NP. Negative = not configured:
  /// the device default applies (4 us on NVIDIA; E810's hidden ~50 us
  /// ignores this knob entirely, §6.3). An explicit 0 disables coalescing
  /// on NICs that honor the parameter (Listing 1 does exactly that).
  Tick min_time_between_cnps = -1;
  bool adaptive_retrans = false;
};

/// One traffic-generation host (Listing 1).
struct HostConfig {
  /// Host identity; doubles as the RNIC name (metric prefix, QPN seed).
  /// Empty = defaulted by TestConfig::normalize(): hosts 0/1 keep the
  /// historical "requester"/"responder" names, later hosts get "host<i>".
  std::string name;
  std::string workspace;
  std::string control_ip;
  NicType nic_type = NicType::kCx5;
  std::string if_name;
  int switch_port = 0;
  std::vector<Ipv4Address> ip_list;
  RoceParameters roce;
};

/// One logical flow: QPs on hosts[src_host] drive requests at
/// hosts[dst_host]. The default pair is the paper's two-host Listing-1
/// shape; k->1 incast is k specs sharing a dst_host, all-to-all is every
/// ordered pair (docs/topology.md).
struct ConnectionSpec {
  int src_host = 0;
  int dst_host = 1;
};

/// A user intent targeting one data packet (Listing 2, `data-pkt-events`).
/// All fields are *relative*: qpn is the 1-based connection index, psn the
/// 1-based data-packet index within the connection (absolute PSN = IPSN +
/// psn - 1, cf. Fig. 2/3), iter the (re)transmission round.
struct DataPacketEvent {
  int qpn = 1;
  std::uint32_t psn = 1;
  EventType type = EventType::kDrop;
  std::uint32_t iter = 1;
  /// For type=delay (§7 extension): how long the packet is held.
  Tick delay = 0;
  /// Stateful fault parameters (burst-loss / pause-storm / link-flap);
  /// ignored by the single-packet event types.
  FaultParams fault{};

  bool operator==(const DataPacketEvent&) const = default;
};

/// Parses an event-type name (the exact strings to_string(EventType)
/// emits, "none" included). The public counterpart of the YAML loader's
/// throwing parser, so tests can hold the string<->enum maps in sync.
std::optional<EventType> parse_event_type(const std::string& text);

/// Traffic shape and reliability knobs (Listing 2).
struct TrafficConfig {
  int num_connections = 1;
  RdmaVerb verb = RdmaVerb::kWrite;
  /// §3.2: "the requester has the flexibility to post verb combinations,
  /// such as Send and Read" — when set, messages alternate between `verb`
  /// and `secondary_verb` (YAML: `rdma-verb: send+read`). Read generates
  /// responder->requester data, so mixing yields bi-directional traffic.
  std::optional<RdmaVerb> secondary_verb;
  int num_msgs_per_qp = 1;
  std::uint32_t mtu = 1024;
  std::uint64_t message_size = 10240;
  bool multi_gid = false;
  bool barrier_sync = false;
  int tx_depth = 1;
  /// IB timeout exponent: minimum RTO = 4.096 us * 2^value.
  int min_retransmit_timeout = 14;
  int max_retransmit_retry = 7;
  std::vector<DataPacketEvent> data_pkt_events;
};

/// Per-QP ETS mapping used by the QoS experiments (§6.2.1). Empty means all
/// QPs share traffic class 0.
struct EtsConfig {
  /// tc_of_qp[i] = traffic class of connection i (0-based).
  std::vector<int> tc_of_qp;
  /// ETS weight (guaranteed bandwidth %) per traffic class.
  std::vector<int> tc_weights;
};

struct TestConfig {
  /// Hosts around the event-injector switch, in switch-port order (host i
  /// attaches to port i). Defaults to the paper's two-host shape.
  std::vector<HostConfig> hosts{HostConfig{}, HostConfig{}};
  /// Flow endpoints by host index. Empty = normalize() expands it to
  /// traffic.num_connections copies of the classic 0->1 pair.
  std::vector<ConnectionSpec> connections;
  TrafficConfig traffic;
  EtsConfig ets;

  /// Role accessors for the classic two-host shape: host 0 is the
  /// requester, host 1 the responder. Growing the vector on demand keeps
  /// `cfg.requester().nic_type = ...` safe on any config.
  HostConfig& requester() { return host_at(0); }
  HostConfig& responder() { return host_at(1); }
  const HostConfig& requester() const { return hosts.at(0); }
  const HostConfig& responder() const { return hosts.at(1); }
  HostConfig& host_at(std::size_t index) {
    if (hosts.size() <= index) hosts.resize(index + 1);
    return hosts[index];
  }

  /// Makes the config self-consistent before a run: guarantees >= 2 hosts,
  /// fills default host names, derives collision-free default GIDs
  /// (10.0.0.<host_index+1>, skipping addresses the config already
  /// claims), reconciles `connections` with traffic.num_connections, and
  /// validates connection host indices and event qpns. Idempotent; throws
  /// YamlError on an invalid connection spec, a duplicate host name, or an
  /// event qpn outside [1, number of connections].
  void normalize();

  /// Throws a YamlError naming `data-pkt-events[i].qpn` unless every event
  /// qpn is in [1, number of connections]. The connections are the explicit
  /// list or, without one, traffic.num_connections copies of the default
  /// pair (at least one), as normalize() resolves them; so the check also
  /// holds on a config normalize() has not seen yet.
  void check_event_qpns() const;
};

/// Default name of host `index`: "requester", "responder", "host<i>".
std::string default_host_name(std::size_t index);

/// Loads a host block (Listing 1, under key "requester"/"responder" or a
/// `hosts:` list entry).
HostConfig load_host_config(const YamlNode& node);

/// Loads a traffic block (Listing 2, under key "traffic").
TrafficConfig load_traffic_config(const YamlNode& node);

/// Loads a full document. Two schemas are accepted (docs/topology.md):
/// the Listing-1 form with "requester"/"responder" keys, and schema v2
/// with a "hosts:" list plus an optional "connections:" list (entries
/// reference hosts by index or name). Mixing both is an error.
TestConfig load_test_config(const YamlNode& root);

/// Serializes a config to YAML text that load_test_config() parses back to
/// an equivalent config (schema v2: hosts:/connections:/traffic:). The
/// encoding is canonical — fixed key order, defaults omitted, doubles
/// printed with round-trip precision — so equal configs serialize to equal
/// bytes. This is what the fuzz corpus checkpoints (src/fuzz/corpus.h)
/// persist. ETS mappings are not part of the YAML schema and are not
/// serialized.
std::string serialize_test_config(const TestConfig& cfg);

/// Applies one sweep override to the traffic block, e.g.
/// `apply_traffic_override(cfg, "message-size", node)`. Campaign sweeps
/// (campaign/campaign_config.h) use this to expand a base experiment into
/// a parameter matrix. Throws YamlError on an unknown key or bad value.
void apply_traffic_override(TestConfig& cfg, const std::string& key,
                            const YamlNode& value);

}  // namespace lumina
