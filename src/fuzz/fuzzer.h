// Genetic test-case generation (§4, Algorithm 1).
//
// The fuzzer maintains a pool of valid test configurations. Each iteration
// picks one at random, mutates it, runs Lumina on the mutant, scores the
// outcome with a user-supplied multi-objective function, and keeps
// high-quality mutants (score >= pool median) — low-quality ones survive
// with probability p to preserve diversity. The loop ends when the target's
// anomaly predicate fires or the iteration budget is exhausted.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "config/test_config.h"
#include "orchestrator/orchestrator.h"
#include "util/random.h"

namespace lumina {

struct FuzzTarget {
  /// Generates one valid configuration for the initial pool.
  std::function<TestConfig(Rng&)> make_initial;
  /// Mutates basic traffic settings and/or event settings in place.
  std::function<void(TestConfig&, Rng&)> mutate;
  /// Multi-objective quality score: higher = closer to an anomaly.
  std::function<double(const TestConfig&, const TestResult&)> score;
  /// Stop condition: the mutant triggered the anomaly being hunted.
  std::function<bool(const TestConfig&, const TestResult&)> is_anomaly;
};

struct FuzzIteration {
  TestConfig config;
  double score = 0;
  bool anomaly = false;
};

struct FuzzOutcome {
  std::optional<FuzzIteration> anomaly;  ///< Set when the hunt succeeded.
  std::vector<FuzzIteration> history;
  int iterations = 0;
};

/// The complete resumable state of one hunt: everything Algorithm 1 carries
/// between steps. A GeneticFuzzer restored from a checkpoint executes the
/// exact same remaining step sequence as one that never paused, because the
/// Rng state rides along (util/random.h) and every step consumes a
/// deterministic number of draws. Serialized by src/fuzz/corpus.h.
struct FuzzCorpusState {
  /// Steps executed so far. Step s < pool_size is an initial-pool fill;
  /// later steps are mutation iterations. The budget is
  /// pool_size + max_iterations steps total.
  int steps_done = 0;
  bool done = false;
  std::optional<FuzzIteration> anomaly;
  std::vector<FuzzIteration> pool;
  std::array<std::uint64_t, 4> rng_state{};
};

class GeneticFuzzer {
 public:
  struct Options {
    int pool_size = 6;
    int max_iterations = 40;
    double low_quality_keep_probability = 0.25;
    std::uint64_t seed = 0xF0CCAC1Au;
  };

  GeneticFuzzer(FuzzTarget target, Options options);

  /// Runs Algorithm 1 until an anomaly is found or the budget runs out.
  FuzzOutcome run();

  /// Runs at most `max_steps` further steps (<= 0 = unlimited). The
  /// returned outcome covers only the steps executed by *this* call —
  /// `state().steps_done` carries the lifetime total — so a caller can
  /// interleave run(budget) / checkpoint() to make any hunt interruptible.
  FuzzOutcome run(int max_steps);

  /// Snapshot of the hunt, suitable for corpus serialization.
  FuzzCorpusState checkpoint() const;

  /// Replaces the hunt state with a checkpoint. Must be called before the
  /// first run(); Options must match the checkpointing fuzzer's for the
  /// resumed sequence to be meaningful.
  void restore(FuzzCorpusState state);

  const FuzzCorpusState& state() const { return state_; }

 private:
  /// Executes one Algorithm 1 step, appending to `outcome`.
  void step(FuzzOutcome& outcome);
  double median_score() const;

  FuzzTarget target_;
  Options options_;
  Rng rng_;
  FuzzCorpusState state_;
};

}  // namespace lumina
