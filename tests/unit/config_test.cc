// Unit tests for typed test-configuration loading (config/test_config).
#include <gtest/gtest.h>

#include <string>

#include "config/test_config.h"
#include "rnic/verbs.h"

namespace lumina {
namespace {

TEST(Config, VerbParsing) {
  EXPECT_EQ(parse_verb("write"), RdmaVerb::kWrite);
  EXPECT_EQ(parse_verb("read"), RdmaVerb::kRead);
  EXPECT_EQ(parse_verb("send"), RdmaVerb::kSendRecv);
  EXPECT_EQ(parse_verb("send-recv"), RdmaVerb::kSendRecv);
  EXPECT_EQ(parse_verb("send_recv"), RdmaVerb::kSendRecv);
  EXPECT_FALSE(parse_verb("atomic").has_value());
  EXPECT_EQ(to_string(RdmaVerb::kRead), "read");
}

TEST(Config, NicTypeParsing) {
  EXPECT_EQ(parse_nic_type("cx4"), NicType::kCx4Lx);
  EXPECT_EQ(parse_nic_type("cx4lx"), NicType::kCx4Lx);
  EXPECT_EQ(parse_nic_type("cx5"), NicType::kCx5);
  EXPECT_EQ(parse_nic_type("cx6"), NicType::kCx6Dx);
  EXPECT_EQ(parse_nic_type("cx6dx"), NicType::kCx6Dx);
  EXPECT_EQ(parse_nic_type("e810"), NicType::kE810);
  EXPECT_EQ(parse_nic_type("soft-roce"), NicType::kSoftRoce);
  EXPECT_EQ(parse_nic_type("rxe"), NicType::kSoftRoce);
  EXPECT_EQ(to_string(NicType::kSoftRoce), "soft-roce");
  EXPECT_FALSE(parse_nic_type("cx9").has_value());
}

TEST(Config, LoadsHostBlock) {
  const YamlNode root = parse_yaml(R"(
workspace: /tmp/ws
control-ip: host-a
nic:
  type: e810
  if-name: ens1
  switch-port: 12
  ip-list: [192.168.1.5/24]
roce-parameters:
  dcqcn-rp-enable: False
  min-time-between-cnps: 8
  adaptive-retrans: True
)");
  const HostConfig cfg = load_host_config(root);
  EXPECT_EQ(cfg.workspace, "/tmp/ws");
  EXPECT_EQ(cfg.control_ip, "host-a");
  EXPECT_EQ(cfg.nic_type, NicType::kE810);
  EXPECT_EQ(cfg.if_name, "ens1");
  EXPECT_EQ(cfg.switch_port, 12);
  ASSERT_EQ(cfg.ip_list.size(), 1u);
  EXPECT_EQ(cfg.ip_list[0].to_string(), "192.168.1.5");
  EXPECT_FALSE(cfg.roce.dcqcn_rp_enable);
  EXPECT_TRUE(cfg.roce.dcqcn_np_enable);  // default
  EXPECT_EQ(cfg.roce.min_time_between_cnps, 8 * kMicrosecond);
  EXPECT_TRUE(cfg.roce.adaptive_retrans);
}

TEST(Config, CnpIntervalUnsetMeansDeviceDefault) {
  const HostConfig unset = load_host_config(parse_yaml("nic:\n  type: cx5\n"));
  EXPECT_LT(unset.roce.min_time_between_cnps, 0);  // sentinel: unset
  const HostConfig zero = load_host_config(parse_yaml(
      "nic:\n  type: cx5\nroce-parameters:\n  min-time-between-cnps: 0\n"));
  EXPECT_EQ(zero.roce.min_time_between_cnps, 0);  // explicit 0 = no limit
}

TEST(Config, LoadsTrafficBlock) {
  const YamlNode root = parse_yaml(R"(
num-connections: 4
rdma-verb: read
num-msgs-per-qp: 7
mtu: 4096
message-size: 1048576
multi-gid: true
barrier-sync: true
tx-depth: 3
min-retransmit-timeout: 10
max-retransmit-retry: 5
data-pkt-events:
- {qpn: 1, psn: 4, type: ecn, iter: 1}
- {qpn: 2, psn: 5, type: drop, iter: 2}
- {qpn: 3, psn: 9, type: corrupt, iter: 1}
)");
  const TrafficConfig cfg = load_traffic_config(root);
  EXPECT_EQ(cfg.num_connections, 4);
  EXPECT_EQ(cfg.verb, RdmaVerb::kRead);
  EXPECT_EQ(cfg.num_msgs_per_qp, 7);
  EXPECT_EQ(cfg.mtu, 4096u);
  EXPECT_EQ(cfg.message_size, 1048576u);
  EXPECT_TRUE(cfg.multi_gid);
  EXPECT_TRUE(cfg.barrier_sync);
  EXPECT_EQ(cfg.tx_depth, 3);
  EXPECT_EQ(cfg.min_retransmit_timeout, 10);
  EXPECT_EQ(cfg.max_retransmit_retry, 5);
  ASSERT_EQ(cfg.data_pkt_events.size(), 3u);
  EXPECT_EQ(cfg.data_pkt_events[0].type, EventType::kEcn);
  EXPECT_EQ(cfg.data_pkt_events[1].type, EventType::kDrop);
  EXPECT_EQ(cfg.data_pkt_events[1].iter, 2u);
  EXPECT_EQ(cfg.data_pkt_events[2].type, EventType::kCorrupt);
}

TEST(Config, TrafficDefaults) {
  const TrafficConfig cfg = load_traffic_config(parse_yaml("mtu: 1024\n"));
  EXPECT_EQ(cfg.num_connections, 1);
  EXPECT_EQ(cfg.verb, RdmaVerb::kWrite);
  EXPECT_EQ(cfg.min_retransmit_timeout, 14);
  EXPECT_EQ(cfg.max_retransmit_retry, 7);
  EXPECT_FALSE(cfg.barrier_sync);
  EXPECT_TRUE(cfg.data_pkt_events.empty());
}

TEST(Config, RejectsUnknownEnumValues) {
  EXPECT_THROW(load_traffic_config(parse_yaml("rdma-verb: atomic\n")),
               YamlError);
  EXPECT_THROW(load_host_config(parse_yaml("nic:\n  type: cx9\n")),
               YamlError);
  EXPECT_THROW(load_traffic_config(parse_yaml(
                   "data-pkt-events:\n- {qpn: 1, psn: 1, type: explode}\n")),
               YamlError);
  EXPECT_THROW(load_host_config(parse_yaml(
                   "nic:\n  type: cx5\n  ip-list: [999.0.0.1]\n")),
               YamlError);
}

TEST(Config, LoadsFullDocument) {
  const YamlNode root = parse_yaml(R"(
requester:
  nic:
    type: cx4
    ip-list: [10.0.0.2/24]
responder:
  nic:
    type: e810
    ip-list: [10.0.1.2/24]
traffic:
  num-connections: 2
  rdma-verb: send
)");
  const TestConfig cfg = load_test_config(root);
  EXPECT_EQ(cfg.requester().nic_type, NicType::kCx4Lx);
  EXPECT_EQ(cfg.responder().nic_type, NicType::kE810);
  EXPECT_EQ(cfg.traffic.verb, RdmaVerb::kSendRecv);
  EXPECT_EQ(cfg.traffic.num_connections, 2);
}

TEST(Config, LoadsHostsAndConnectionsSchema) {
  // Schema v2 (docs/topology.md): a hosts: list plus connection specs
  // addressed by host name or index, with an optional count multiplier.
  const YamlNode root = parse_yaml(R"(
hosts:
- name: sender0
  nic:
    type: cx6
- name: sender1
  nic:
    type: cx6
- name: sink
  nic:
    type: e810
    ip-list: [10.0.0.9/24]
connections:
- {src: sender0, dst: sink}
- {src: 1, dst: 2, count: 2}
traffic:
  rdma-verb: write
)");
  TestConfig cfg = load_test_config(root);
  ASSERT_EQ(cfg.hosts.size(), 3u);
  EXPECT_EQ(cfg.hosts[0].name, "sender0");
  EXPECT_EQ(cfg.hosts[2].nic_type, NicType::kE810);
  ASSERT_EQ(cfg.connections.size(), 3u);
  EXPECT_EQ(cfg.connections[0].src_host, 0);
  EXPECT_EQ(cfg.connections[0].dst_host, 2);
  EXPECT_EQ(cfg.connections[1].src_host, 1);
  EXPECT_EQ(cfg.connections[2].src_host, 1);
  EXPECT_EQ(cfg.connections[2].dst_host, 2);
  cfg.normalize();
  // num_connections mirrors the resolved list.
  EXPECT_EQ(cfg.traffic.num_connections, 3);
}

TEST(Config, ConnectionsResolveDefaultHostNames) {
  // Unnamed hosts 0/1 answer to the classic role aliases.
  const YamlNode root = parse_yaml(R"(
hosts:
- nic:
    type: cx5
- nic:
    type: cx5
connections:
- {src: requester, dst: responder}
)");
  const TestConfig cfg = load_test_config(root);
  ASSERT_EQ(cfg.connections.size(), 1u);
  EXPECT_EQ(cfg.connections[0].src_host, 0);
  EXPECT_EQ(cfg.connections[0].dst_host, 1);
}

TEST(Config, RejectsMixedSchemas) {
  EXPECT_THROW(load_test_config(parse_yaml(R"(
hosts:
- nic:
    type: cx5
requester:
  nic:
    type: cx5
)")),
               YamlError);
  EXPECT_THROW(load_test_config(parse_yaml(R"(
connections:
- {src: 0, dst: 1}
responder:
  nic:
    type: cx5
)")),
               YamlError);
}

TEST(Config, RejectsBadConnectionSpecs) {
  EXPECT_THROW(load_test_config(parse_yaml(
                   "hosts:\n- nic:\n    type: cx5\nconnections:\n"
                   "- {src: nowhere, dst: 0}\n")),
               YamlError);
  EXPECT_THROW(load_test_config(parse_yaml(
                   "connections:\n- {src: 0, dst: 1, count: 0}\n")),
               YamlError);
  // Out-of-range indices and self-loops surface at normalize() time.
  TestConfig out_of_range = load_test_config(
      parse_yaml("connections:\n- {src: 0, dst: 7}\n"));
  EXPECT_THROW(out_of_range.normalize(), YamlError);
  TestConfig self_loop =
      load_test_config(parse_yaml("connections:\n- {src: 1, dst: 1}\n"));
  EXPECT_THROW(self_loop.normalize(), YamlError);
}

/// The YamlError message `load` throws, or "" when it does not throw.
template <typename Load>
std::string yaml_error(Load load) {
  try {
    load();
  } catch (const YamlError& error) {
    return error.what();
  }
  return "";
}

TEST(Config, RejectsHostIndexOutsideIntRange) {
  // Digits that overflow int must fail as a YamlError naming the key, not
  // escape as std::out_of_range.
  for (const char* index : {"99999999999999999999", "4294967297",
                            "2147483648"}) {
    const std::string src = std::string("connections:\n- {src: ") + index +
                            ", dst: 1}\n";
    EXPECT_NE(yaml_error([&] { load_test_config(parse_yaml(src)); })
                  .find("src"),
              std::string::npos)
        << index;
    const std::string dst = std::string("connections:\n- {src: 0, dst: ") +
                            index + "}\n";
    EXPECT_NE(yaml_error([&] { load_test_config(parse_yaml(dst)); })
                  .find("dst"),
              std::string::npos)
        << index;
  }
  // The largest int still loads; normalize() then rejects it as a host
  // the config does not have.
  TestConfig max_int = load_test_config(
      parse_yaml("connections:\n- {src: 0, dst: 2147483647}\n"));
  EXPECT_EQ(max_int.connections.at(0).dst_host, 2147483647);
  EXPECT_THROW(max_int.normalize(), YamlError);
}

TEST(Config, RejectsZeroMtu) {
  // The RNIC divides messages by the MTU: 0, and values that wrap to 0 as
  // a uint32, must fail at load as a YamlError naming the key.
  for (const char* mtu : {"0", "-1", "4294967296"}) {
    const std::string text = std::string("traffic:\n  mtu: ") + mtu + "\n";
    EXPECT_NE(yaml_error([&] { load_test_config(parse_yaml(text)); })
                  .find("mtu"),
              std::string::npos)
        << mtu;
    TestConfig swept;
    EXPECT_NE(yaml_error([&] {
                apply_traffic_override(swept, "mtu", YamlNode::scalar(mtu));
              }).find("mtu"),
              std::string::npos)
        << mtu;
  }
  EXPECT_EQ(load_test_config(parse_yaml("traffic:\n  mtu: 1\n")).traffic.mtu,
            1u);
}

TEST(Config, RejectsEventQpnOutOfRange) {
  // An event qpn is a 1-based connection index. 0, n+1, and a value that
  // wraps to 1 as an int must each fail as a YamlError naming the key,
  // not throw mid-run or move the event onto another connection.
  for (const char* qpn : {"0", "3", "4294967297"}) {
    const std::string text =
        std::string("traffic:\n"
                    "  num-connections: 2\n"
                    "  data-pkt-events:\n"
                    "  - {qpn: 1, psn: 4, type: ecn}\n"
                    "  - {qpn: ") +
        qpn + ", psn: 5, type: drop}\n";
    EXPECT_NE(yaml_error([&] {
                load_test_config(parse_yaml(text)).normalize();
              }).find("data-pkt-events[1].qpn"),
              std::string::npos)
        << qpn;
  }
  // The connection count an explicit list implies bounds qpn too.
  TestConfig listed = load_test_config(parse_yaml(
      "connections:\n- {src: 0, dst: 1, count: 3}\n"
      "traffic:\n  data-pkt-events:\n  - {qpn: 3, psn: 1}\n"));
  listed.normalize();
  EXPECT_EQ(listed.traffic.data_pkt_events.at(0).qpn, 3);
  listed.traffic.data_pkt_events.at(0).qpn = 4;
  EXPECT_THROW(listed.normalize(), YamlError);
}

TEST(Config, NormalizeRejectsDuplicateHostNames) {
  TestConfig cfg;
  cfg.host_at(0).name = "twin";
  cfg.host_at(1).name = "twin";
  EXPECT_THROW(cfg.normalize(), YamlError);
}

TEST(Config, NormalizePadsToTwoHostsAndFillsConnections) {
  // The orchestrator builds its testbed from a normalized config, so it
  // always sees at least two named hosts and one connection.
  TestConfig none;
  none.hosts.clear();
  none.traffic.num_connections = 3;
  none.normalize();
  ASSERT_EQ(none.hosts.size(), 2u);
  EXPECT_EQ(none.hosts[0].name, "requester");
  EXPECT_EQ(none.hosts[1].name, "responder");
  // An empty connection list becomes num_connections copies of 0->1.
  ASSERT_EQ(none.connections.size(), 3u);
  for (const ConnectionSpec& conn : none.connections) {
    EXPECT_EQ(conn.src_host, 0);
    EXPECT_EQ(conn.dst_host, 1);
  }
  EXPECT_EQ(none.traffic.num_connections, 3);

  // One host is padded the same way, and a connection count below one
  // still yields one connection.
  TestConfig one;
  one.hosts.resize(1);
  one.traffic.num_connections = 0;
  one.normalize();
  ASSERT_EQ(one.hosts.size(), 2u);
  EXPECT_EQ(one.hosts[1].name, "responder");
  ASSERT_EQ(one.connections.size(), 1u);
  EXPECT_EQ(one.connections[0].src_host, 0);
  EXPECT_EQ(one.connections[0].dst_host, 1);
  EXPECT_EQ(one.traffic.num_connections, 1);
}

TEST(Config, NormalizeAssignsCollisionFreeIps) {
  // Host i defaults to 10.0.0.<i+1> for any host count...
  TestConfig cfg;
  cfg.host_at(3);  // four hosts, no ip-list anywhere
  cfg.normalize();
  ASSERT_EQ(cfg.hosts.size(), 4u);
  EXPECT_EQ(cfg.hosts[0].ip_list.at(0).to_string(), "10.0.0.1");
  EXPECT_EQ(cfg.hosts[1].ip_list.at(0).to_string(), "10.0.0.2");
  EXPECT_EQ(cfg.hosts[2].ip_list.at(0).to_string(), "10.0.0.3");
  EXPECT_EQ(cfg.hosts[3].ip_list.at(0).to_string(), "10.0.0.4");

  // ...and skips addresses the config already claims instead of colliding.
  TestConfig taken;
  taken.host_at(0).ip_list = {*Ipv4Address::parse("10.0.0.2")};
  taken.host_at(2);
  taken.normalize();
  EXPECT_EQ(taken.hosts[0].ip_list.at(0).to_string(), "10.0.0.2");
  EXPECT_EQ(taken.hosts[1].ip_list.at(0).to_string(), "10.0.0.3");
  EXPECT_EQ(taken.hosts[2].ip_list.at(0).to_string(), "10.0.0.4");
}

TEST(Config, NumConnectionsSweepConflictsWithExplicitList) {
  TestConfig cfg = load_test_config(
      parse_yaml("connections:\n- {src: 0, dst: 1}\n"));
  EXPECT_THROW(apply_traffic_override(cfg, "num-connections", YamlNode::scalar("4")),
               YamlError);
  // Without an explicit list the sweep still works.
  TestConfig classic;
  apply_traffic_override(classic, "num-connections", YamlNode::scalar("4"));
  EXPECT_EQ(classic.traffic.num_connections, 4);
}

TEST(Config, IbTimeoutFormula) {
  EXPECT_EQ(ib_timeout_to_rto(0), 4096);
  EXPECT_EQ(ib_timeout_to_rto(1), 8192);
  EXPECT_EQ(ib_timeout_to_rto(14), Tick{4096} << 14);  // 67.1 ms
  EXPECT_NEAR(to_ms(ib_timeout_to_rto(14)), 67.1, 0.1);
}

// ---------------------------------------------------------------------------
// Event vocabulary: string maps and fault-parameter round trips
// ---------------------------------------------------------------------------

TEST(Config, EventTypeStringsRoundTripEveryValue) {
  // Walk the whole enum through both string maps. Growing EventType
  // without updating to_string(), parse_event_type(), AND kNumEventTypes
  // fails here instead of silently formatting "unknown" somewhere.
  for (int v = 0; v < kNumEventTypes; ++v) {
    const auto type = static_cast<EventType>(v);
    const std::string name = to_string(type);
    EXPECT_NE(name, "unknown") << "to_string missing enum value " << v;
    const auto parsed = parse_event_type(name);
    ASSERT_TRUE(parsed.has_value()) << "parse_event_type missing '" << name
                                    << "'";
    EXPECT_EQ(*parsed, type) << name;
  }
  // The sentinel one past the end must NOT format or parse: if it does,
  // kNumEventTypes lags the enum.
  EXPECT_EQ(to_string(static_cast<EventType>(kNumEventTypes)), "unknown");
  EXPECT_FALSE(parse_event_type("unknown").has_value());
  EXPECT_FALSE(parse_event_type("").has_value());
}

TEST(Config, LoadsFaultEventParameters) {
  const TrafficConfig cfg = load_traffic_config(parse_yaml(R"(
data-pkt-events:
- {qpn: 1, psn: 4, type: duplicate, iter: 1}
- {qpn: 1, psn: 5, type: burst-loss, iter: 1, ge-p: 0.4, ge-r: 0.6, duration-us: 30}
- {qpn: 2, psn: 2, type: pause-storm, iter: 1, duration-us: 100, priority: 3}
- {qpn: 2, psn: 3, type: link-flap, iter: 1, duration-us: 10, queued: hold}
)"));
  ASSERT_EQ(cfg.data_pkt_events.size(), 4u);
  EXPECT_EQ(cfg.data_pkt_events[0].type, EventType::kDuplicate);
  const DataPacketEvent& burst = cfg.data_pkt_events[1];
  EXPECT_EQ(burst.type, EventType::kBurstLoss);
  EXPECT_DOUBLE_EQ(burst.fault.ge_p, 0.4);
  EXPECT_DOUBLE_EQ(burst.fault.ge_r, 0.6);
  EXPECT_EQ(burst.fault.duration, 30 * kMicrosecond);
  const DataPacketEvent& storm = cfg.data_pkt_events[2];
  EXPECT_EQ(storm.type, EventType::kPauseStorm);
  EXPECT_EQ(storm.fault.duration, 100 * kMicrosecond);
  EXPECT_EQ(storm.fault.priority, 3);
  const DataPacketEvent& flap = cfg.data_pkt_events[3];
  EXPECT_EQ(flap.type, EventType::kLinkFlap);
  EXPECT_EQ(flap.fault.duration, 10 * kMicrosecond);
  EXPECT_FALSE(flap.fault.flap_drops_queued);

  EXPECT_THROW(load_traffic_config(parse_yaml(
                   "data-pkt-events:\n"
                   "- {qpn: 1, psn: 1, type: link-flap, queued: maybe}\n")),
               YamlError);
}

TEST(Config, SerializeRoundTripsFaultEvents) {
  TestConfig cfg;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 3;
  cfg.traffic.message_size = 20480;
  DataPacketEvent dup{1, 4, EventType::kDuplicate, 1};
  DataPacketEvent burst{1, 5, EventType::kBurstLoss, 1};
  burst.fault.ge_p = 0.3;
  burst.fault.ge_r = 0.7;
  burst.fault.duration = 25 * kMicrosecond;
  DataPacketEvent storm{2, 2, EventType::kPauseStorm, 1};
  storm.fault.duration = 80 * kMicrosecond;
  storm.fault.priority = 1;
  DataPacketEvent flap{2, 3, EventType::kLinkFlap, 1};
  flap.fault.duration = 12 * kMicrosecond;
  flap.fault.flap_drops_queued = false;
  DataPacketEvent delay{1, 6, EventType::kDelay, 2};
  delay.delay = 40 * kMicrosecond;
  cfg.traffic.data_pkt_events = {dup, burst, storm, flap, delay};

  const std::string text = serialize_test_config(cfg);
  const TestConfig back = load_test_config(parse_yaml(text));
  ASSERT_EQ(back.traffic.data_pkt_events.size(), 5u);
  EXPECT_EQ(back.traffic.data_pkt_events, cfg.traffic.data_pkt_events);
  // Canonical encoding: re-serializing the parsed config is a fixpoint —
  // the property the fuzz corpus byte-determinism rests on.
  EXPECT_EQ(serialize_test_config(back), text);
}

TEST(Config, ShardsKeyIsRejected) {
  // The sharded kernel is gone. Unknown keys are otherwise ignored, so any
  // `shards:` value must fail loudly rather than run unsharded.
  for (const char* text : {"shards: 1\n", "shards: 4\n", "shards: auto\n"}) {
    EXPECT_THROW(load_test_config(parse_yaml(text)), YamlError) << text;
  }
}

}  // namespace
}  // namespace lumina
