#include "fuzz/fuzzer.h"

#include <algorithm>

#include "util/logging.h"

namespace lumina {

GeneticFuzzer::GeneticFuzzer(FuzzTarget target, Options options)
    : target_(std::move(target)), options_(options), rng_(options.seed) {}

double GeneticFuzzer::median_score() const {
  if (state_.pool.empty()) return 0;
  std::vector<double> scores;
  scores.reserve(state_.pool.size());
  for (const auto& entry : state_.pool) scores.push_back(entry.score);
  std::sort(scores.begin(), scores.end());
  return scores[scores.size() / 2];
}

FuzzCorpusState GeneticFuzzer::checkpoint() const {
  FuzzCorpusState state = state_;
  state.rng_state = rng_.state();
  return state;
}

void GeneticFuzzer::restore(FuzzCorpusState state) {
  rng_.set_state(state.rng_state);
  state_ = std::move(state);
}

// One Algorithm 1 step. The RNG call sequence per step is fixed — initial
// steps draw only inside make_initial; mutation steps draw pick, mutate,
// and (only for below-median mutants, via the || short-circuit) the
// keep-probability trial — so a checkpoint/restore at any step boundary
// continues the exact same random sequence as an uninterrupted run.
void GeneticFuzzer::step(FuzzOutcome& outcome) {
  const bool initial = state_.steps_done < options_.pool_size;
  FuzzIteration entry;
  if (initial) {
    entry.config = target_.make_initial(rng_);
  } else {
    const std::size_t pick = rng_.next_below(state_.pool.size());
    entry.config = state_.pool[pick].config;
    target_.mutate(entry.config, rng_);
  }

  Orchestrator orch(entry.config);
  const TestResult& result = orch.run();
  entry.score = target_.score(entry.config, result);
  entry.anomaly = target_.is_anomaly(entry.config, result);
  outcome.history.push_back(entry);
  ++outcome.iterations;

  if (initial || entry.score >= median_score() ||
      rng_.next_bool(options_.low_quality_keep_probability)) {
    state_.pool.push_back(entry);
  }
  ++state_.steps_done;
  if (entry.anomaly) {
    state_.anomaly = entry;
    state_.done = true;
  } else if (state_.steps_done >=
             options_.pool_size + options_.max_iterations) {
    state_.done = true;
  }
}

FuzzOutcome GeneticFuzzer::run() { return run(0); }

FuzzOutcome GeneticFuzzer::run(int max_steps) {
  FuzzOutcome outcome;
  int executed = 0;
  while (!state_.done && (max_steps <= 0 || executed < max_steps)) {
    step(outcome);
    ++executed;
  }
  outcome.anomaly = state_.anomaly;
  return outcome;
}

}  // namespace lumina
