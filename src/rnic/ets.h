// Enhanced Transmission Selection (IEEE 802.1Qaz) egress scheduler.
//
// ETS shares the egress link between traffic classes using weighted fair
// queueing (deficit round-robin here, per Shreedhar & Varghese). A correct
// implementation is work conserving: an active class may exceed its
// guaranteed share when other classes leave bandwidth unused.
//
// §6.2.1 of the paper found that the CX6 Dx implementation is NOT work
// conserving: each ETS queue is strictly limited to its guaranteed
// bandwidth whenever multiple queues are configured. The
// `work_conserving=false` mode reproduces that bug with a per-class token
// bucket refilled at weight% of the line rate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/time.h"

namespace lumina {

class EtsScheduler {
 public:
  /// `weights` are relative guaranteed-bandwidth shares per traffic class
  /// (e.g. {50, 50}); they need not sum to 100.
  void configure(std::vector<int> weights, double link_gbps,
                 bool work_conserving);

  bool configured() const { return !tc_.empty(); }

  /// Picks the next traffic class to serve among classes that currently
  /// have a packet ready. `active[tc]` marks readiness, `pkt_bytes[tc]` is
  /// the size of that class's head packet. Returns nullopt when no active
  /// class may send now (only possible in non-work-conserving mode, where
  /// classes can be out of tokens).
  std::optional<int> pick(Tick now, const std::vector<bool>& active,
                          const std::vector<std::size_t>& pkt_bytes);

  /// Charges a transmission to `tc`.
  void on_sent(int tc, std::size_t bytes, Tick now);

  /// Earliest time an active-but-token-starved class becomes eligible;
  /// Tick max when none is starved.
  Tick next_eligible_time(Tick now, const std::vector<bool>& active,
                          const std::vector<std::size_t>& pkt_bytes) const;

 private:
  struct TcState {
    int weight = 1;
    double deficit_bytes = 0;     // DRR deficit counter
    double quantum_bytes = 0;     // per-visit deficit top-up (weight-scaled)
    bool in_service = false;      // topped up for the current visit
    double tokens_bytes = 0;      // token bucket (non-work-conserving only)
    Tick tokens_updated = 0;
    double rate_bytes_per_ns = 0; // weight share of the link
  };

  void refill_tokens(TcState& tc, Tick now) const;
  bool has_tokens(const TcState& tc, Tick now, std::size_t bytes) const;

  std::vector<TcState> tc_;
  std::size_t cursor_ = 0;
  double quantum_bytes_ = 4096;
  double burst_bytes_ = 16 * 1024;
  bool work_conserving_ = true;
};

}  // namespace lumina
