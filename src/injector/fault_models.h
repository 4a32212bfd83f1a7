// Stateful fault models behind the extended event vocabulary.
//
// The original injector events (drop/ECN/corrupt/delay/reorder) are
// single-packet actions: one table match, one transform. The ROADMAP
// "Scenario explosion" vocabulary adds faults with *memory* — a burst-loss
// channel that stays bad for a while, a PFC pause storm that keeps
// refreshing pause frames (packet/pfc.h carries the wire format), a link
// that is down until it comes back. This header holds the seeded
// Gilbert–Elliott two-state channel the burst-loss event arms per flow.
#pragma once

#include <cstdint>

#include "packet/pfc.h"
#include "util/random.h"

namespace lumina {

/// Gilbert–Elliott two-state loss channel. In the Good state packets pass;
/// in the Bad state they are lost. Transitions happen per packet: Good→Bad
/// with probability `p`, Bad→Good with probability `r`. The stationary loss
/// rate is p/(p+r) and the mean burst (Bad sojourn) length is 1/r packets —
/// the classic bursty-loss model, here fully deterministic for a fixed seed
/// because it draws from the repo's own xoshiro Rng.
class GilbertElliottChannel {
 public:
  /// `start_bad` puts the channel in the Bad state for its first decision —
  /// the injector uses this so the table-matched packet that activates the
  /// channel is itself the first casualty of the burst.
  GilbertElliottChannel(double p, double r, std::uint64_t seed,
                        bool start_bad = false)
      : p_(p), r_(r), bad_(start_bad), rng_(seed) {}

  /// Advances the channel by one packet. Returns true when that packet is
  /// lost. The loss decision reflects the state *before* this call; the
  /// state transition for the next packet is drawn afterwards, so exactly
  /// one Rng draw happens per packet regardless of state.
  bool drop_next() {
    const bool lost = bad_;
    const double flip = bad_ ? r_ : p_;
    if (rng_.next_bool(flip)) bad_ = !bad_;
    ++decisions_;
    return lost;
  }

  std::uint64_t decisions() const { return decisions_; }

 private:
  double p_;
  double r_;
  bool bad_;
  std::uint64_t decisions_ = 0;
  Rng rng_;
};

}  // namespace lumina
