// Differential test: a Port's deferred serialization-complete events
// against the eager path.
//
// A port with a drained callback schedules every completion; one without
// files a completion only once a frame waits behind it, under the id it
// reserved when the transmission started (docs/simulator.md, "Deferred
// completions"). Seeded scripts drive several ports into one sink with
// random frame sizes, sends from events at random ticks, tail drops at
// small byte caps and link flaps with and without drop_queued. Sends land
// on completion ticks on both sides of the completion: root events sort
// before it, and "chase" sends scheduled for the tick a frame finishes
// sort after it. Each script runs
// twice on fresh simulators: once with a no-op drained callback on every
// sending port (the eager path) and once without (the deferred path). The
// deliveries, the port state at every delivery and the counters must
// match, and deferral must not add events.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "net/node.h"

namespace lumina {
namespace {

enum class ActionKind { kSend, kBurst, kLinkDown, kLinkUp };

struct Action {
  ActionKind kind = ActionKind::kSend;
  int port = 0;
  std::vector<std::size_t> sizes;  ///< frame sizes (kSend, kBurst)
  bool drop_queued = false;        ///< kLinkDown
  /// Follow-ups, scheduled from this action's event after `delay`, so they
  /// take ids above anything the action itself scheduled.
  std::vector<std::pair<Tick, int>> then;  // (delay, action index)
  /// An action scheduled for the tick the port's current frame finishes
  /// serializing, after that frame's completion took its id; -1 for none.
  int chase = -1;
};

struct PortSpec {
  double gbps = 8.0;
  Tick propagation = 0;
  std::size_t byte_cap = 4 * 1024 * 1024;
};

struct Script {
  std::vector<PortSpec> ports;
  std::vector<Action> actions;
  std::vector<std::pair<Tick, int>> roots;  // (tick, action index)
};

class ScriptGen {
 public:
  explicit ScriptGen(std::uint64_t seed) : rng_(seed) {}

  Script generate() {
    Script s;
    const int ports = 2 + static_cast<int>(rng_() % 3);
    for (int i = 0; i < ports; ++i) {
      PortSpec spec;
      // At 8 Gb/s a frame of b wire bytes serializes in exactly b ns, and
      // frame sizes and ticks sit on an 8 ns lattice, so sends land on
      // completion ticks often. One port in four runs off the lattice.
      static constexpr double kRates[] = {8.0, 4.0, 16.0, 8.0, 100.0};
      spec.gbps = kRates[rng_() % 5];
      spec.propagation = static_cast<Tick>(8 * (rng_() % 6));
      if (rng_() % 4 == 0) {
        spec.byte_cap = static_cast<std::size_t>(200 + rng_() % 600);
      }
      s.ports.push_back(spec);
    }
    const int roots = 10 + static_cast<int>(rng_() % 40);
    for (int i = 0; i < roots; ++i) {
      s.roots.emplace_back(lattice_tick(256), action(s, ports, 0));
    }
    return s;
  }

 private:
  int action(Script& s, int ports, int depth) {
    Action a;
    a.port = static_cast<int>(rng_() % static_cast<unsigned>(ports));
    switch (rng_() % 10) {
      case 0:
        a.kind = ActionKind::kLinkDown;
        a.drop_queued = rng_() % 2 == 0;
        break;
      case 1:
        a.kind = ActionKind::kLinkUp;
        break;
      case 2:
        a.kind = ActionKind::kBurst;
        for (int n = 2 + static_cast<int>(rng_() % 3); n > 0; --n) {
          a.sizes.push_back(frame_size());
        }
        break;
      default:
        a.kind = ActionKind::kSend;
        a.sizes.push_back(frame_size());
        break;
    }
    const int index = static_cast<int>(s.actions.size());
    s.actions.push_back(a);
    if (a.kind == ActionKind::kSend && rng_() % 3 == 0) {
      Action chase;
      chase.port = a.port;
      chase.sizes.push_back(frame_size());
      s.actions[static_cast<std::size_t>(index)].chase =
          static_cast<int>(s.actions.size());
      s.actions.push_back(chase);
    }
    if (a.kind == ActionKind::kLinkDown) {
      // Most outages end; the rest leave the port down for a while.
      if (rng_() % 4 != 0) {
        Action up;
        up.kind = ActionKind::kLinkUp;
        up.port = a.port;
        const int up_index = static_cast<int>(s.actions.size());
        s.actions.push_back(up);
        s.actions[static_cast<std::size_t>(index)].then.emplace_back(
            lattice_tick(24), up_index);
      }
    }
    if (depth < 3) {
      for (int n = static_cast<int>(rng_() % 3); n > 0; --n) {
        // Up to the longest frame's serialization time, so follow-ups
        // land on completion ticks after the completion's id was taken.
        const Tick delay = lattice_tick(32);
        const int next = action(s, ports, depth + 1);
        s.actions[static_cast<std::size_t>(index)].then.emplace_back(delay,
                                                                     next);
      }
    }
    return index;
  }

  /// Payload bytes b with b + 24 wire bytes on the 8 ns lattice.
  std::size_t frame_size() {
    return static_cast<std::size_t>(8 * (1 + rng_() % 24) + 16);
  }

  Tick lattice_tick(unsigned steps) {
    return static_cast<Tick>(8 * (rng_() % steps));
  }

  std::mt19937_64 rng_;
};

/// The sending side: owns the ports, never receives.
class Source : public Node {
 public:
  void handle_packet(int, Packet) override {}
};

struct PortState {
  Tick busy_until;
  std::size_t queued_bytes;
  bool idle;
  auto operator<=>(const PortState&) const = default;
};

struct Delivery {
  Tick when;
  int port;
  std::vector<std::uint8_t> bytes;
  std::vector<PortState> senders;  ///< every sending port at this instant
  auto operator<=>(const Delivery&) const = default;
};

/// Records every arrival, with the state of all sending ports.
class Sink : public Node {
 public:
  Sink(Simulator* sim, const std::vector<std::unique_ptr<Port>>* senders)
      : sim_(sim), senders_(senders) {}

  void handle_packet(int in_port, Packet pkt) override {
    Delivery d{sim_->now(), in_port, std::move(pkt.bytes), {}};
    for (const auto& port : *senders_) {
      d.senders.push_back(
          {port->busy_until(), port->queued_bytes(), port->idle()});
    }
    deliveries.push_back(std::move(d));
  }

  std::vector<Delivery> deliveries;

 private:
  Simulator* sim_;
  const std::vector<std::unique_ptr<Port>>* senders_;
};

using CounterTuple =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::size_t>;

CounterTuple counter_tuple(const PortCounters& c) {
  return {c.tx_packets, c.rx_packets, c.tx_bytes,
          c.rx_bytes,   c.drops,      c.max_queued_bytes};
}

struct Observation {
  std::vector<Delivery> deliveries;
  std::vector<CounterTuple> counters;  ///< senders, then sink ports
  std::uint64_t events_processed = 0;
  // Eager side only: sends that landed on the tick of their port's
  // completion before and after that completion ran.
  int sends_before_completion = 0;
  int sends_after_completion = 0;
};

Observation execute(const Script& script, bool eager) {
  Simulator sim;
  Source source;
  std::vector<std::unique_ptr<Port>> senders;
  Sink sink(&sim, &senders);
  std::vector<std::unique_ptr<Port>> sink_ports;
  const std::size_t n = script.ports.size();
  // Eager side: when each port's last drained completion ran, and when its
  // link last changed (a completion that runs while the link is down
  // drains nothing, so a tick with a flap is not classified).
  std::vector<Tick> drained_at(n, -1);
  std::vector<Tick> flapped_at(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    senders.push_back(std::make_unique<Port>(&sim, &source, static_cast<int>(i)));
    sink_ports.push_back(std::make_unique<Port>(&sim, &sink, static_cast<int>(i)));
    connect(*senders[i], *sink_ports[i],
            LinkParams{script.ports[i].gbps, script.ports[i].propagation});
    senders[i]->set_queue_byte_cap(script.ports[i].byte_cap);
    if (eager) {
      senders[i]->set_drained_callback(
          [&sim, &drained_at, i] { drained_at[i] = sim.now(); });
    }
  }

  Observation obs;
  std::uint16_t serial = 0;
  struct Ctx {
    Simulator& sim;
    const Script& script;
    std::vector<std::unique_ptr<Port>>& senders;
    std::vector<Tick>& drained_at;
    std::vector<Tick>& flapped_at;
    Observation& obs;
    std::uint16_t& serial;
    bool eager;

    void classify_send(std::size_t p) {
      const Port& port = *senders[p];
      const Tick now = sim.now();
      if (!eager || port.counters().tx_packets == 0 ||
          port.busy_until() != now || !port.link_up() ||
          flapped_at[p] == now) {
        return;
      }
      if (drained_at[p] == now) {
        ++obs.sends_after_completion;
      } else {
        ++obs.sends_before_completion;
      }
    }

    void run(int index) {
      const Action& a = script.actions[static_cast<std::size_t>(index)];
      const auto p = static_cast<std::size_t>(a.port);
      switch (a.kind) {
        case ActionKind::kSend:
        case ActionKind::kBurst:
          for (const std::size_t size : a.sizes) {
            classify_send(p);
            Packet pkt;
            pkt.bytes.assign(size, static_cast<std::uint8_t>(a.port));
            pkt.bytes[0] = static_cast<std::uint8_t>(serial >> 8);
            pkt.bytes[1] = static_cast<std::uint8_t>(serial);
            ++serial;
            senders[p]->send(std::move(pkt));
          }
          break;
        case ActionKind::kLinkDown:
          flapped_at[p] = sim.now();
          senders[p]->set_link_down(a.drop_queued);
          break;
        case ActionKind::kLinkUp:
          flapped_at[p] = sim.now();
          senders[p]->set_link_up();
          break;
      }
      for (const auto& [delay, next] : a.then) {
        sim.schedule_after(delay, [this, next = next] { run(next); });
      }
      if (a.chase >= 0) {
        sim.schedule_at(senders[p]->busy_until(),
                        [this, next = a.chase] { run(next); });
      }
    }
  };
  Ctx ctx{sim, script, senders, drained_at, flapped_at, obs, serial, eager};
  for (const auto& [tick, index] : script.roots) {
    sim.schedule_at(tick, [&ctx, index = index] { ctx.run(index); });
  }
  sim.run();
  // Outages left open at the end: bring every port up and drain the rest.
  for (std::size_t i = 0; i < n; ++i) {
    flapped_at[i] = sim.now();
    senders[i]->set_link_up();
  }
  sim.run();

  obs.deliveries = std::move(sink.deliveries);
  for (const auto& port : senders) {
    obs.counters.push_back(counter_tuple(port->counters()));
  }
  for (const auto& port : sink_ports) {
    obs.counters.push_back(counter_tuple(port->counters()));
  }
  obs.events_processed = sim.events_processed();
  return obs;
}

TEST(PortDifferential, DeferredCompletionsMatchEagerCompletions) {
  constexpr int kSeeds = 400;
  std::size_t deliveries = 0;
  std::uint64_t drops = 0;
  std::uint64_t eager_events = 0;
  std::uint64_t deferred_events = 0;
  int before = 0;
  int after = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    ScriptGen gen(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL);
    const Script script = gen.generate();
    const Observation eager = execute(script, /*eager=*/true);
    const Observation deferred = execute(script, /*eager=*/false);

    ASSERT_EQ(deferred.deliveries, eager.deliveries) << "seed " << seed;
    ASSERT_EQ(deferred.counters, eager.counters) << "seed " << seed;
    ASSERT_LE(deferred.events_processed, eager.events_processed)
        << "seed " << seed;

    deliveries += eager.deliveries.size();
    for (std::size_t i = 0; i < script.ports.size(); ++i) {
      drops += std::get<4>(eager.counters[i]);
    }
    eager_events += eager.events_processed;
    deferred_events += deferred.events_processed;
    before += eager.sends_before_completion;
    after += eager.sends_after_completion;
  }
  // Guard against the generator degenerating into scripts that never hit
  // the cases the deferral has to get right.
  EXPECT_GT(deliveries, 10'000u);
  EXPECT_GT(drops, 100u);
  EXPECT_LT(deferred_events, eager_events);
  EXPECT_GT(before, 100);
  EXPECT_GT(after, 100);
}

}  // namespace
}  // namespace lumina
