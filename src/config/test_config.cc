#include "config/test_config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <set>

namespace lumina {
namespace {

EventType parse_event_type_or_throw(const std::string& text) {
  const auto parsed = parse_event_type(text);
  if (!parsed) throw YamlError("unknown event type: " + text);
  return *parsed;
}

/// A traffic `mtu` value, from the config or a sweep. The RNIC divides a
/// message into mtu-sized packets, so 0 (or a value that wraps to 0 as a
/// uint32) must never load.
std::uint32_t checked_mtu(std::int64_t mtu) {
  if (mtu < 1 || mtu > std::numeric_limits<std::uint32_t>::max()) {
    throw YamlError("mtu must be in [1, 4294967295], got " +
                    std::to_string(mtu));
  }
  return static_cast<std::uint32_t>(mtu);
}

std::string event_qpn_key(std::size_t i) {
  return "data-pkt-events[" + std::to_string(i) + "].qpn";
}

/// An event `qpn` is a 1-based connection index. It is read as int64 so a
/// value past int range fails here instead of wrapping onto a valid
/// connection; check_event_qpns() checks it against the connection count.
int checked_event_qpn(std::int64_t qpn, std::size_t i) {
  if (qpn < std::numeric_limits<int>::min() ||
      qpn > std::numeric_limits<int>::max()) {
    throw YamlError(event_qpn_key(i) +
                    " must be in [1, number of connections], got " +
                    std::to_string(qpn));
  }
  return static_cast<int>(qpn);
}

}  // namespace

std::optional<EventType> parse_event_type(const std::string& text) {
  if (text == "none") return EventType::kNone;
  if (text == "ecn") return EventType::kEcn;
  if (text == "drop") return EventType::kDrop;
  if (text == "corrupt") return EventType::kCorrupt;
  if (text == "rewrite-migreq") return EventType::kRewriteMigReq;
  if (text == "delay") return EventType::kDelay;
  if (text == "reorder") return EventType::kReorder;
  if (text == "duplicate") return EventType::kDuplicate;
  if (text == "burst-loss") return EventType::kBurstLoss;
  if (text == "pause-storm") return EventType::kPauseStorm;
  if (text == "link-flap") return EventType::kLinkFlap;
  return std::nullopt;
}

std::string default_host_name(std::size_t index) {
  if (index == 0) return "requester";
  if (index == 1) return "responder";
  return "host" + std::to_string(index);
}

void TestConfig::normalize() {
  if (hosts.size() < 2) hosts.resize(2);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i].name.empty()) hosts[i].name = default_host_name(i);
  }
  std::set<std::string> names;
  for (const auto& host : hosts) {
    if (!names.insert(host.name).second) {
      throw YamlError("duplicate host name: " + host.name);
    }
  }

  // Default GIDs so configs may omit ip-list (Listing 1 shows them, but
  // benches usually construct configs programmatically): host i wants
  // 10.0.0.<i+1>, advancing past any address the config already claims.
  std::set<std::uint32_t> used;
  for (const auto& host : hosts) {
    for (const auto& ip : host.ip_list) used.insert(ip.value);
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (!hosts[i].ip_list.empty()) continue;
    Ipv4Address ip{Ipv4Address::from_octets(10, 0, 0, 0).value +
                   static_cast<std::uint32_t>(i) + 1};
    while (used.count(ip.value) != 0) ++ip.value;
    used.insert(ip.value);
    hosts[i].ip_list.push_back(ip);
  }

  if (connections.empty()) {
    connections.assign(
        static_cast<std::size_t>(std::max(1, traffic.num_connections)),
        ConnectionSpec{});
  }
  traffic.num_connections = static_cast<int>(connections.size());
  for (const auto& conn : connections) {
    const auto n = static_cast<int>(hosts.size());
    if (conn.src_host < 0 || conn.src_host >= n || conn.dst_host < 0 ||
        conn.dst_host >= n) {
      throw YamlError("connection references host " +
                      std::to_string(std::max(conn.src_host, conn.dst_host)) +
                      " but only " + std::to_string(n) + " hosts exist");
    }
    if (conn.src_host == conn.dst_host) {
      throw YamlError("connection src and dst are both host " +
                      std::to_string(conn.src_host));
    }
  }
  check_event_qpns();
}

void TestConfig::check_event_qpns() const {
  const auto n = connections.empty()
                     ? std::max(1, traffic.num_connections)
                     : static_cast<int>(connections.size());
  for (std::size_t i = 0; i < traffic.data_pkt_events.size(); ++i) {
    const int qpn = traffic.data_pkt_events[i].qpn;
    if (qpn < 1 || qpn > n) {
      throw YamlError(event_qpn_key(i) + " must be in [1, " +
                      std::to_string(n) + "] (the number of connections), " +
                      "got " + std::to_string(qpn));
    }
  }
}

std::string to_string(RdmaVerb verb) {
  switch (verb) {
    case RdmaVerb::kSendRecv: return "send";
    case RdmaVerb::kWrite: return "write";
    case RdmaVerb::kRead: return "read";
    case RdmaVerb::kFetchAdd: return "fetchadd";
    case RdmaVerb::kCmpSwap: return "cmpswap";
  }
  return "?";
}

std::optional<RdmaVerb> parse_verb(const std::string& text) {
  if (text == "send" || text == "send_recv" || text == "send-recv") {
    return RdmaVerb::kSendRecv;
  }
  if (text == "write") return RdmaVerb::kWrite;
  if (text == "read") return RdmaVerb::kRead;
  if (text == "fetchadd" || text == "fetch-add") return RdmaVerb::kFetchAdd;
  if (text == "cmpswap" || text == "cmp-swap") return RdmaVerb::kCmpSwap;
  return std::nullopt;
}

std::string to_string(NicType nic) {
  switch (nic) {
    case NicType::kCx4Lx: return "cx4";
    case NicType::kCx5: return "cx5";
    case NicType::kCx6Dx: return "cx6";
    case NicType::kE810: return "e810";
    case NicType::kSoftRoce: return "soft-roce";
  }
  return "?";
}

std::optional<NicType> parse_nic_type(const std::string& text) {
  if (text == "cx4" || text == "cx4lx" || text == "connectx-4") {
    return NicType::kCx4Lx;
  }
  if (text == "cx5" || text == "connectx-5") return NicType::kCx5;
  if (text == "cx6" || text == "cx6dx" || text == "connectx-6") {
    return NicType::kCx6Dx;
  }
  if (text == "e810" || text == "intel-e810") return NicType::kE810;
  if (text == "soft-roce" || text == "softroce" || text == "rxe") {
    return NicType::kSoftRoce;
  }
  return std::nullopt;
}

HostConfig load_host_config(const YamlNode& node) {
  HostConfig cfg;
  cfg.name = node["name"].as_string_or("");
  cfg.workspace = node["workspace"].as_string_or("");
  cfg.control_ip = node["control-ip"].as_string_or("");

  const YamlNode& nic = node["nic"];
  if (nic.is_map()) {
    const std::string type = nic["type"].as_string_or("cx5");
    const auto parsed = parse_nic_type(type);
    if (!parsed) throw YamlError("unknown nic type: " + type);
    cfg.nic_type = *parsed;
    cfg.if_name = nic["if-name"].as_string_or("");
    cfg.switch_port = static_cast<int>(nic["switch-port"].as_int_or(0));
    const YamlNode& ips = nic["ip-list"];
    for (std::size_t i = 0; i < ips.size(); ++i) {
      const std::string text = ips[i].as_string();
      const auto addr = Ipv4Address::parse(text);
      if (!addr) throw YamlError("bad IPv4 address: " + text);
      cfg.ip_list.push_back(*addr);
    }
  }

  const YamlNode& roce = node["roce-parameters"];
  if (roce.is_map()) {
    cfg.roce.dcqcn_rp_enable = roce["dcqcn-rp-enable"].as_bool_or(true);
    cfg.roce.dcqcn_np_enable = roce["dcqcn-np-enable"].as_bool_or(true);
    if (roce.has("min-time-between-cnps")) {
      cfg.roce.min_time_between_cnps =
          roce["min-time-between-cnps"].as_int() * kMicrosecond;
    }
    cfg.roce.adaptive_retrans = roce["adaptive-retrans"].as_bool_or(false);
  }
  return cfg;
}

TrafficConfig load_traffic_config(const YamlNode& node) {
  TrafficConfig cfg;
  cfg.num_connections =
      static_cast<int>(node["num-connections"].as_int_or(1));
  const std::string verb = node["rdma-verb"].as_string_or("write");
  // "send+read" style combinations alternate two verbs (§3.2).
  const auto plus = verb.find('+');
  if (plus != std::string::npos) {
    const auto primary = parse_verb(verb.substr(0, plus));
    const auto secondary = parse_verb(verb.substr(plus + 1));
    if (!primary || !secondary) throw YamlError("unknown rdma verb: " + verb);
    cfg.verb = *primary;
    cfg.secondary_verb = *secondary;
  } else {
    const auto parsed = parse_verb(verb);
    if (!parsed) throw YamlError("unknown rdma verb: " + verb);
    cfg.verb = *parsed;
  }
  cfg.num_msgs_per_qp = static_cast<int>(node["num-msgs-per-qp"].as_int_or(1));
  cfg.mtu = checked_mtu(node["mtu"].as_int_or(1024));
  cfg.message_size =
      static_cast<std::uint64_t>(node["message-size"].as_int_or(10240));
  cfg.multi_gid = node["multi-gid"].as_bool_or(false);
  cfg.barrier_sync = node["barrier-sync"].as_bool_or(false);
  cfg.tx_depth = static_cast<int>(node["tx-depth"].as_int_or(1));
  cfg.min_retransmit_timeout =
      static_cast<int>(node["min-retransmit-timeout"].as_int_or(14));
  cfg.max_retransmit_retry =
      static_cast<int>(node["max-retransmit-retry"].as_int_or(7));

  const YamlNode& events = node["data-pkt-events"];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const YamlNode& ev = events[i];
    DataPacketEvent out;
    out.qpn = checked_event_qpn(ev["qpn"].as_int_or(1), i);
    out.psn = static_cast<std::uint32_t>(ev["psn"].as_int_or(1));
    out.type = parse_event_type_or_throw(ev["type"].as_string_or("drop"));
    out.iter = static_cast<std::uint32_t>(ev["iter"].as_int_or(1));
    out.delay = ev["delay-us"].as_int_or(0) * kMicrosecond;
    // Stateful fault knobs (docs/fuzzing.md); defaults match FaultParams.
    out.fault.duration = ev["duration-us"].as_int_or(0) * kMicrosecond;
    out.fault.ge_p = ev["ge-p"].as_double_or(out.fault.ge_p);
    out.fault.ge_r = ev["ge-r"].as_double_or(out.fault.ge_r);
    out.fault.priority = static_cast<int>(ev["priority"].as_int_or(0));
    if (ev.has("queued")) {
      const std::string queued = ev["queued"].as_string();
      if (queued == "drop") {
        out.fault.flap_drops_queued = true;
      } else if (queued == "hold") {
        out.fault.flap_drops_queued = false;
      } else {
        throw YamlError("link-flap queued: must be drop or hold, got " +
                        queued);
      }
    }
    cfg.data_pkt_events.push_back(out);
  }
  return cfg;
}

namespace {

/// Resolves a `connections:` endpoint — an integer host index or a host
/// name (explicit or defaulted).
int resolve_host_index(const std::vector<HostConfig>& hosts,
                       const YamlNode& node, const char* key) {
  const std::string text = node.as_string();
  if (text.empty()) throw YamlError(std::string("connection missing ") + key);
  if (std::all_of(text.begin(), text.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; })) {
    int index = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, index);
    if (ec != std::errc{} || ptr != end) {
      throw YamlError(std::string("connection ") + key +
                      " host index out of range: " + text);
    }
    return index;
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::string& name =
        hosts[i].name.empty() ? default_host_name(i) : hosts[i].name;
    if (name == text) return static_cast<int>(i);
  }
  throw YamlError("connection references unknown host: " + text);
}

}  // namespace

TestConfig load_test_config(const YamlNode& root) {
  // Unknown keys are otherwise ignored, so a leftover `shards: 4` would
  // silently run on the one event kernel.
  if (root.has("shards")) {
    throw YamlError(
        "shards: is no longer supported: the sharded event kernel was "
        "removed and every run uses one Simulator");
  }
  TestConfig cfg;
  const bool v2 = root.has("hosts") || root.has("connections");
  if (v2 && (root.has("requester") || root.has("responder"))) {
    throw YamlError(
        "config mixes hosts:/connections: with requester:/responder: keys");
  }
  if (root.has("hosts")) {
    const YamlNode& hosts = root["hosts"];
    cfg.hosts.clear();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      cfg.hosts.push_back(load_host_config(hosts[i]));
    }
  } else {
    if (root.has("requester")) {
      cfg.requester() = load_host_config(root["requester"]);
    }
    if (root.has("responder")) {
      cfg.responder() = load_host_config(root["responder"]);
    }
  }
  if (root.has("traffic")) cfg.traffic = load_traffic_config(root["traffic"]);
  if (root.has("connections")) {
    const YamlNode& conns = root["connections"];
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const YamlNode& item = conns[i];
      ConnectionSpec spec;
      spec.src_host = resolve_host_index(cfg.hosts, item["src"], "src");
      spec.dst_host = resolve_host_index(cfg.hosts, item["dst"], "dst");
      const auto count = item["count"].as_int_or(1);
      if (count < 1) throw YamlError("connection count must be >= 1");
      for (std::int64_t c = 0; c < count; ++c) cfg.connections.push_back(spec);
    }
    // An explicit connection list IS the connection count. normalize()
    // repeats this later, but doing it here keeps a loaded config
    // structurally identical to the in-memory config it was serialized
    // from — the fuzzer mutates configs on both sides of a checkpoint
    // round trip, so any field skew changes the RNG draw sequence.
    cfg.traffic.num_connections = static_cast<int>(cfg.connections.size());
  }
  return cfg;
}

namespace {

/// Shortest decimal form that parses back to the same double (to_chars
/// round-trip guarantee) — keeps ge-p/ge-r exact across checkpoint cycles.
std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void append_kv(std::string& out, int indent, const std::string& key,
               const std::string& value) {
  out.append(static_cast<std::size_t>(indent), ' ');
  out += key;
  out += ": ";
  out += value;
  out += '\n';
}

void append_host(std::string& out, const HostConfig& host) {
  out += "- name: " + host.name + "\n";
  if (!host.workspace.empty()) append_kv(out, 2, "workspace", host.workspace);
  if (!host.control_ip.empty()) {
    append_kv(out, 2, "control-ip", host.control_ip);
  }
  out += "  nic:\n";
  append_kv(out, 4, "type", to_string(host.nic_type));
  if (!host.if_name.empty()) append_kv(out, 4, "if-name", host.if_name);
  if (host.switch_port != 0) {
    append_kv(out, 4, "switch-port", std::to_string(host.switch_port));
  }
  if (!host.ip_list.empty()) {
    std::string ips = "[";
    for (std::size_t i = 0; i < host.ip_list.size(); ++i) {
      if (i != 0) ips += ", ";
      ips += host.ip_list[i].to_string();
    }
    ips += "]";
    append_kv(out, 4, "ip-list", ips);
  }
  const RoceParameters defaults;
  const RoceParameters& roce = host.roce;
  if (roce.dcqcn_rp_enable != defaults.dcqcn_rp_enable ||
      roce.dcqcn_np_enable != defaults.dcqcn_np_enable ||
      roce.min_time_between_cnps != defaults.min_time_between_cnps ||
      roce.adaptive_retrans != defaults.adaptive_retrans) {
    out += "  roce-parameters:\n";
    if (roce.dcqcn_rp_enable != defaults.dcqcn_rp_enable) {
      append_kv(out, 4, "dcqcn-rp-enable", "false");
    }
    if (roce.dcqcn_np_enable != defaults.dcqcn_np_enable) {
      append_kv(out, 4, "dcqcn-np-enable", "false");
    }
    if (roce.min_time_between_cnps >= 0) {
      append_kv(out, 4, "min-time-between-cnps",
                std::to_string(roce.min_time_between_cnps / kMicrosecond));
    }
    if (roce.adaptive_retrans != defaults.adaptive_retrans) {
      append_kv(out, 4, "adaptive-retrans", "true");
    }
  }
}

void append_event(std::string& out, const DataPacketEvent& ev) {
  out += "  - {qpn: " + std::to_string(ev.qpn);
  out += ", psn: " + std::to_string(ev.psn);
  out += ", type: " + to_string(ev.type);
  out += ", iter: " + std::to_string(ev.iter);
  if (ev.delay != 0) {
    out += ", delay-us: " + std::to_string(ev.delay / kMicrosecond);
  }
  const FaultParams defaults;
  if (ev.fault.duration != 0) {
    out += ", duration-us: " + std::to_string(ev.fault.duration / kMicrosecond);
  }
  if (ev.type == EventType::kBurstLoss) {
    out += ", ge-p: " + format_double(ev.fault.ge_p);
    out += ", ge-r: " + format_double(ev.fault.ge_r);
  }
  if (ev.fault.priority != 0) {
    out += ", priority: " + std::to_string(ev.fault.priority);
  }
  if (ev.type == EventType::kLinkFlap &&
      ev.fault.flap_drops_queued != defaults.flap_drops_queued) {
    out += ", queued: hold";
  }
  out += "}\n";
}

}  // namespace

std::string serialize_test_config(const TestConfig& cfg) {
  std::string out;
  out += "hosts:\n";
  for (std::size_t i = 0; i < cfg.hosts.size(); ++i) {
    HostConfig host = cfg.hosts[i];
    if (host.name.empty()) host.name = default_host_name(i);
    append_host(out, host);
  }
  if (!cfg.connections.empty()) {
    out += "connections:\n";
    for (const auto& conn : cfg.connections) {
      out += "- {src: " + std::to_string(conn.src_host) +
             ", dst: " + std::to_string(conn.dst_host) + "}\n";
    }
  }
  const TrafficConfig& t = cfg.traffic;
  out += "traffic:\n";
  if (cfg.connections.empty()) {
    append_kv(out, 2, "num-connections", std::to_string(t.num_connections));
  }
  std::string verb = to_string(t.verb);
  if (t.secondary_verb) verb += "+" + to_string(*t.secondary_verb);
  append_kv(out, 2, "rdma-verb", verb);
  append_kv(out, 2, "num-msgs-per-qp", std::to_string(t.num_msgs_per_qp));
  append_kv(out, 2, "mtu", std::to_string(t.mtu));
  append_kv(out, 2, "message-size", std::to_string(t.message_size));
  if (t.multi_gid) append_kv(out, 2, "multi-gid", "true");
  if (t.barrier_sync) append_kv(out, 2, "barrier-sync", "true");
  append_kv(out, 2, "tx-depth", std::to_string(t.tx_depth));
  append_kv(out, 2, "min-retransmit-timeout",
            std::to_string(t.min_retransmit_timeout));
  append_kv(out, 2, "max-retransmit-retry",
            std::to_string(t.max_retransmit_retry));
  if (!t.data_pkt_events.empty()) {
    out += "  data-pkt-events:\n";
    for (const auto& ev : t.data_pkt_events) append_event(out, ev);
  }
  return out;
}

void apply_traffic_override(TestConfig& cfg, const std::string& key,
                            const YamlNode& value) {
  TrafficConfig& t = cfg.traffic;
  if (key == "num-connections") {
    // An explicit connections: list fixes the flow set; sweeping the count
    // over it would silently rewrite the topology.
    if (!cfg.connections.empty()) {
      throw YamlError(
          "num-connections sweep conflicts with explicit connections list");
    }
    t.num_connections = static_cast<int>(value.as_int());
  } else if (key == "num-msgs-per-qp") {
    t.num_msgs_per_qp = static_cast<int>(value.as_int());
  } else if (key == "message-size") {
    t.message_size = static_cast<std::uint64_t>(value.as_int());
  } else if (key == "mtu") {
    t.mtu = checked_mtu(value.as_int());
  } else if (key == "tx-depth") {
    t.tx_depth = static_cast<int>(value.as_int());
  } else if (key == "min-retransmit-timeout") {
    t.min_retransmit_timeout = static_cast<int>(value.as_int());
  } else if (key == "max-retransmit-retry") {
    t.max_retransmit_retry = static_cast<int>(value.as_int());
  } else if (key == "rdma-verb") {
    const auto verb = parse_verb(value.as_string());
    if (!verb) throw YamlError("unknown rdma verb: " + value.as_string());
    t.verb = *verb;
  } else {
    throw YamlError("unknown sweep key: " + key);
  }
}

}  // namespace lumina
