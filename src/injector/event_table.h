// Match-action event table and ITER tracking (§3.3, Fig. 2/3).
//
// The orchestrator populates the table with *absolute* rules computed by
// joining user intents (relative QPN/PSN/ITER) with runtime traffic
// metadata announced by the traffic generator. The data plane then does a
// pure exact-match lookup per packet — the stateless design the paper
// argues for.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "packet/addresses.h"
#include "packet/roce_packet.h"
#include "util/time.h"

namespace lumina {

/// Identifies one direction of one QP connection on the wire.
struct FlowKey {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint32_t dst_qpn = 0;

  bool operator==(const FlowKey&) const = default;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept {
    std::uint64_t h = k.src_ip.value;
    h = h * 0x9e3779b97f4a7c15ULL + k.dst_ip.value;
    h = h * 0x9e3779b97f4a7c15ULL + k.dst_qpn;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// One populated match-action entry: exact match on
/// (srcIP, dstIP, dstQPN, PSN, ITER) -> event action (+ parameter).
struct EventRule {
  FlowKey flow;
  std::uint32_t psn = 0;
  std::uint32_t iter = 1;
  EventType action = EventType::kDrop;
  /// kDelay: how long the packet is held before forwarding.
  Tick delay = 0;
  /// Stateful fault parameters (burst loss / pause storm / link flap).
  FaultParams fault{};
};

/// The action half of a matched rule.
struct EventAction {
  EventType type = EventType::kNone;
  Tick delay = 0;
  FaultParams fault;
};

/// Tracks the (re)transmission round per connection (Fig. 3): ITER starts
/// at 1 and increments whenever the observed PSN is not larger than the
/// previous packet's PSN.
class IterTracker {
 public:
  /// Registers a connection with its initial PSN; last-PSN starts at
  /// IPSN - 1 so the very first packet stays in round 1.
  void register_flow(const FlowKey& flow, std::uint32_t ipsn);

  /// Observes a data packet and returns its ITER. Unregistered flows are
  /// auto-registered with the observed PSN as IPSN (stateful-discovery
  /// ablation mode; the stock pipeline always pre-registers).
  std::uint32_t observe(const FlowKey& flow, std::uint32_t psn);

  /// Current ITER of a flow (1 if unseen).
  std::uint32_t iter(const FlowKey& flow) const;

  std::size_t tracked_flows() const { return flows_.size(); }

 private:
  struct State {
    std::uint32_t last_psn = 0;
    std::uint32_t iter = 1;
  };
  std::unordered_map<FlowKey, State, FlowKeyHash> flows_;
};

/// Exact-match event table.
class EventTable {
 public:
  void install(const EventRule& rule);
  std::size_t size() const { return rules_.size(); }

  /// Looks up and *consumes* a matching rule (each rule fires once, like a
  /// Tofino entry invalidated after match — deterministic single-shot
  /// events). Returns the action if hit.
  std::optional<EventAction> match(const FlowKey& flow, std::uint32_t psn,
                                   std::uint32_t iter);

  /// Non-consuming probe, used by tests.
  std::optional<EventAction> peek(const FlowKey& flow, std::uint32_t psn,
                                  std::uint32_t iter) const;

  std::uint64_t hits() const { return hits_; }

 private:
  struct RuleKey {
    FlowKey flow;
    std::uint32_t psn;
    std::uint32_t iter;
    bool operator==(const RuleKey&) const = default;
  };
  struct RuleKeyHash {
    std::size_t operator()(const RuleKey& k) const noexcept {
      std::size_t h = FlowKeyHash{}(k.flow);
      return h * 1000003u + k.psn * 31u + k.iter;
    }
  };
  std::unordered_map<RuleKey, EventAction, RuleKeyHash> rules_;
  std::uint64_t hits_ = 0;
};

}  // namespace lumina
