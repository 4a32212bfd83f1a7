// Deterministic fan-out primitives for campaign execution.
//
// A campaign is a list of *independent* runs (suite probes, fuzz shards,
// experiment sweeps). Each run owns a private Simulator, so runs can be
// executed on any number of worker threads — determinism comes from two
// rules enforced here:
//
//   1. every run derives its seed from the campaign seed and its own
//      index (`derive_run_seed`), never from thread identity or time;
//   2. results land in an index-addressed slot array, so aggregation
//      order is the spec order no matter which worker finished first.
//
// The dispatch/result path is lock-free: workers claim indices from one
// atomic counter and write to disjoint slots. There is no result queue to
// drain and no mutex on the hot path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "util/time.h"

namespace lumina {

/// How a campaign executes: worker-thread count and the master seed every
/// per-run key is derived from.
struct CampaignOptions {
  int jobs = 1;                     ///< Worker threads (<=1 = sequential).
  std::uint64_t seed = 0xC0FFEEULL; ///< Campaign master seed.
  /// Retired event-kernel shard count, kept only so existing callers
  /// compile: run_campaign throws std::invalid_argument for any value
  /// but 1.
  int shards = 1;
};

/// Wall-clock + simulated-time cost of one run. Wall time is inherently
/// nondeterministic and therefore never written into compared artifacts.
struct RunMetrics {
  double wall_ms = 0;            ///< Host wall-clock time for the run.
  Tick sim_duration = 0;         ///< Simulated time the run covered.
  std::uint64_t sim_events = 0;  ///< Discrete events processed.
};

/// FNV-1a over a sequence of 64-bit words, used as the per-run key
/// `derive_run_seed(campaign_seed, run_index)` (§4-style reproducibility:
/// the same campaign seed always yields the same per-run seeds, and runs
/// can be re-executed standalone from their derived seed alone).
constexpr std::uint64_t fnv1a64(std::uint64_t word,
                                std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xFF;
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

constexpr std::uint64_t derive_run_seed(std::uint64_t campaign_seed,
                                        std::uint64_t run_index) {
  return fnv1a64(run_index, fnv1a64(campaign_seed));
}

/// Runs `fn(0..n-1)` across `jobs` worker threads and returns the results
/// in index order. `fn` must be safe to call concurrently for distinct
/// indices (each campaign run builds its own Simulator, so this holds by
/// construction). Exceptions are captured per slot and the lowest-index
/// one is rethrown after all workers join — again independent of timing.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, int jobs, Fn&& fn) {
  std::vector<std::optional<T>> slots(n);
  std::vector<std::exception_ptr> errors(n);

  const auto worker_body = [&](std::atomic<std::size_t>& next) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        slots[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      jobs <= 1 ? 1
                : std::min<std::size_t>(static_cast<std::size_t>(jobs),
                                        n == 0 ? 1 : n);
  if (workers <= 1) {
    worker_body(next);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] { worker_body(next); });
    }
    for (auto& t : pool) t.join();
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  std::vector<T> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace lumina
