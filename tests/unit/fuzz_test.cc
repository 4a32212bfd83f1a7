// Unit tests for the genetic fuzzer (§4, Algorithm 1), its corpus
// checkpointing, and the report-driven fitness terms.
#include <gtest/gtest.h>

#include "config/yaml_lite.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/scorers.h"
#include "fuzz/targets.h"

namespace lumina {
namespace {

/// A cheap synthetic target so fuzzer mechanics can be tested without
/// running full simulations for every assertion: score = message size,
/// anomaly when the mutated message size crosses a threshold.
FuzzTarget synthetic_target() {
  FuzzTarget target;
  target.make_initial = [](Rng& rng) {
    TestConfig cfg;
    cfg.traffic.verb = RdmaVerb::kWrite;
    cfg.traffic.num_msgs_per_qp = 1;
    cfg.traffic.message_size = 1024 + rng.next_below(4) * 1024;
    return cfg;
  };
  target.mutate = [](TestConfig& cfg, Rng& rng) {
    cfg.traffic.message_size += rng.next_below(3) * 1024;
  };
  target.score = [](const TestConfig& cfg, const TestResult&) {
    return static_cast<double>(cfg.traffic.message_size);
  };
  target.is_anomaly = [](const TestConfig& cfg, const TestResult&) {
    return cfg.traffic.message_size >= 8 * 1024;
  };
  return target;
}

TEST(Fuzzer, ClimbsTowardHigherScores) {
  GeneticFuzzer::Options options;
  options.pool_size = 4;
  options.max_iterations = 120;
  options.seed = 7;
  GeneticFuzzer fuzzer(synthetic_target(), options);
  const FuzzOutcome outcome = fuzzer.run();
  // The hill is trivially climbable: the anomaly must be reached.
  ASSERT_TRUE(outcome.anomaly.has_value());
  EXPECT_GE(outcome.anomaly->config.traffic.message_size, 8u * 1024u);
  EXPECT_LE(outcome.iterations,
            options.pool_size + options.max_iterations);
}

TEST(Fuzzer, StopsAtIterationBudgetWithoutAnomaly) {
  FuzzTarget target = synthetic_target();
  target.is_anomaly = [](const TestConfig&, const TestResult&) {
    return false;  // unreachable
  };
  GeneticFuzzer::Options options;
  options.pool_size = 2;
  options.max_iterations = 5;
  GeneticFuzzer fuzzer(target, options);
  const FuzzOutcome outcome = fuzzer.run();
  EXPECT_FALSE(outcome.anomaly.has_value());
  EXPECT_EQ(outcome.iterations, 7);
  EXPECT_EQ(outcome.history.size(), 7u);
}

TEST(Fuzzer, AnomalyInInitialPoolShortCircuits) {
  FuzzTarget target = synthetic_target();
  target.is_anomaly = [](const TestConfig&, const TestResult&) {
    return true;  // first config already anomalous
  };
  GeneticFuzzer fuzzer(target, {});
  const FuzzOutcome outcome = fuzzer.run();
  ASSERT_TRUE(outcome.anomaly.has_value());
  EXPECT_EQ(outcome.iterations, 1);
}

TEST(Fuzzer, DeterministicForSameSeed) {
  GeneticFuzzer::Options options;
  options.pool_size = 3;
  options.max_iterations = 10;
  options.seed = 99;
  FuzzTarget target = synthetic_target();
  target.is_anomaly = [](const TestConfig&, const TestResult&) {
    return false;
  };
  GeneticFuzzer a(target, options);
  GeneticFuzzer b(target, options);
  const FuzzOutcome oa = a.run();
  const FuzzOutcome ob = b.run();
  ASSERT_EQ(oa.history.size(), ob.history.size());
  for (std::size_t i = 0; i < oa.history.size(); ++i) {
    EXPECT_EQ(oa.history[i].config.traffic.message_size,
              ob.history[i].config.traffic.message_size);
  }
}

TEST(Fuzzer, NoisyNeighborTargetProducesValidConfigs) {
  Rng rng(5);
  const FuzzTarget target = make_noisy_neighbor_target(NicType::kCx4Lx);
  for (int i = 0; i < 20; ++i) {
    TestConfig cfg = target.make_initial(rng);
    EXPECT_EQ(cfg.traffic.verb, RdmaVerb::kRead);
    EXPECT_GE(cfg.traffic.num_connections, 8);
    EXPECT_LE(cfg.traffic.num_connections, 40);
    EXPECT_LE(static_cast<int>(cfg.traffic.data_pkt_events.size()),
              cfg.traffic.num_connections);
    for (int m = 0; m < 5; ++m) {
      target.mutate(cfg, rng);
      EXPECT_GE(cfg.traffic.num_connections, 4);
      EXPECT_LE(cfg.traffic.num_connections, 64);
      EXPECT_LE(static_cast<int>(cfg.traffic.data_pkt_events.size()),
                cfg.traffic.num_connections);
      for (const auto& ev : cfg.traffic.data_pkt_events) {
        EXPECT_GE(ev.qpn, 1);
        EXPECT_LE(ev.qpn, cfg.traffic.num_connections);
      }
    }
  }
}

TEST(Fuzzer, LossyTargetScoresCounterBugsHigh) {
  // The lossy-network target must score an E810 run (stuck cnpSent after
  // drops/marks...) higher than a healthy CX5 run of the same shape.
  const FuzzTarget target = make_lossy_network_target(NicType::kCx4Lx);
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx4Lx;
  cfg.responder().nic_type = NicType::kCx4Lx;
  cfg.traffic.verb = RdmaVerb::kRead;
  cfg.traffic.message_size = 20 * 1024;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 5, EventType::kDrop, 1});
  Orchestrator bad(cfg);
  const double bad_score = target.score(cfg, bad.run());
  EXPECT_TRUE(target.is_anomaly(cfg, bad.result()));  // implied_nak stuck

  TestConfig good_cfg = cfg;
  good_cfg.requester().nic_type = NicType::kCx5;
  good_cfg.responder().nic_type = NicType::kCx5;
  Orchestrator good(good_cfg);
  const double good_score = target.score(good_cfg, good.run());
  EXPECT_FALSE(target.is_anomaly(good_cfg, good.result()));
  EXPECT_GT(bad_score, good_score);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume and the corpus on-disk form (docs/fuzzing.md)
// ---------------------------------------------------------------------------

FuzzTarget no_anomaly_target() {
  FuzzTarget target = synthetic_target();
  target.is_anomaly = [](const TestConfig&, const TestResult&) {
    return false;
  };
  return target;
}

GeneticFuzzer::Options exhaustive_options() {
  GeneticFuzzer::Options options;
  options.pool_size = 3;
  options.max_iterations = 9;
  options.seed = 99;
  return options;
}

TEST(FuzzerCheckpoint, StepBudgetCoversOnlyTheCurrentCall) {
  GeneticFuzzer fuzzer(no_anomaly_target(), exhaustive_options());
  const FuzzOutcome first = fuzzer.run(4);
  EXPECT_EQ(first.iterations, 4);
  EXPECT_EQ(fuzzer.state().steps_done, 4);
  EXPECT_FALSE(fuzzer.state().done);
  // The second call reports only its own steps; lifetime totals live in
  // state(). 3 + 9 = 12 total, so 8 remain.
  const FuzzOutcome rest = fuzzer.run(0);
  EXPECT_EQ(rest.iterations, 8);
  EXPECT_EQ(fuzzer.state().steps_done, 12);
  EXPECT_TRUE(fuzzer.state().done);
}

TEST(FuzzerCheckpoint, ResumedHuntMatchesUninterrupted) {
  const FuzzTarget target = no_anomaly_target();
  const GeneticFuzzer::Options options = exhaustive_options();
  GeneticFuzzer uninterrupted(target, options);
  uninterrupted.run();
  const std::string expected = serialize_corpus(uninterrupted.checkpoint());

  // Interrupt after 4 steps, round the checkpoint through its on-disk
  // text form, and finish the hunt in a brand-new fuzzer.
  GeneticFuzzer first_half(target, options);
  first_half.run(4);
  const std::string mid = serialize_corpus(first_half.checkpoint());
  GeneticFuzzer second_half(target, options);
  second_half.restore(parse_corpus(mid));
  second_half.run();
  EXPECT_EQ(serialize_corpus(second_half.checkpoint()), expected);
}

TEST(Corpus, SerializationIsAFixpoint) {
  GeneticFuzzer fuzzer(no_anomaly_target(), exhaustive_options());
  fuzzer.run(5);
  const std::string bytes = serialize_corpus(fuzzer.checkpoint());
  const FuzzCorpusState parsed = parse_corpus(bytes);
  EXPECT_EQ(parsed.steps_done, 5);
  EXPECT_EQ(parsed.pool.size(), fuzzer.state().pool.size());
  EXPECT_EQ(serialize_corpus(parsed), bytes);
  EXPECT_EQ(corpus_digest(bytes), corpus_digest(serialize_corpus(parsed)));
}

TEST(Corpus, AnomalyBlockRoundTrips) {
  GeneticFuzzer::Options options;
  options.pool_size = 4;
  options.max_iterations = 120;
  options.seed = 7;
  GeneticFuzzer fuzzer(synthetic_target(), options);
  fuzzer.run();
  ASSERT_TRUE(fuzzer.state().anomaly.has_value());
  const std::string bytes = serialize_corpus(fuzzer.checkpoint());
  const FuzzCorpusState parsed = parse_corpus(bytes);
  EXPECT_TRUE(parsed.done);
  ASSERT_TRUE(parsed.anomaly.has_value());
  EXPECT_EQ(parsed.anomaly->config.traffic.message_size,
            fuzzer.state().anomaly->config.traffic.message_size);
  EXPECT_EQ(serialize_corpus(parsed), bytes);
}

TEST(Corpus, MalformedTextThrows) {
  EXPECT_THROW(parse_corpus("not a corpus"), YamlError);
  EXPECT_THROW(parse_corpus("# lumina fuzz corpus v1\nsteps-done: x\n"),
               YamlError);
}

TEST(Corpus, MissingFileIsNullopt) {
  EXPECT_FALSE(
      load_corpus_file("/nonexistent/dir/corpus.yaml").has_value());
}

// ---------------------------------------------------------------------------
// The scenario target (multi-host incast + full fault vocabulary)
// ---------------------------------------------------------------------------

TEST(Fuzzer, ScenarioTargetConfigsRoundTripCanonically) {
  // Everything the target generates must survive the corpus round trip
  // byte-exactly: serialize -> parse -> serialize is a fixpoint.
  Rng rng(3);
  const FuzzTarget target = make_scenario_target(NicType::kCx5, 4);
  for (int i = 0; i < 15; ++i) {
    TestConfig cfg = target.make_initial(rng);
    EXPECT_EQ(cfg.hosts.size(), 4u);
    for (int m = 0; m < 4; ++m) {
      target.mutate(cfg, rng);
      EXPECT_GE(cfg.traffic.data_pkt_events.size(), 1u);
      EXPECT_LE(cfg.traffic.data_pkt_events.size(), 4u);
      for (const auto& ev : cfg.traffic.data_pkt_events) {
        EXPECT_GE(ev.qpn, 1);
        EXPECT_LE(ev.qpn, cfg.traffic.num_connections);
      }
      const std::string text = serialize_test_config(cfg);
      const TestConfig reparsed = load_test_config(parse_yaml(text));
      EXPECT_EQ(serialize_test_config(reparsed), text);
      EXPECT_EQ(reparsed.traffic.data_pkt_events,
                cfg.traffic.data_pkt_events);
    }
  }
}

TEST(Fuzzer, ScenarioTargetRegistered) {
  EXPECT_TRUE(
      make_fuzz_target("scenario", NicType::kCx5, 3).has_value());
  EXPECT_FALSE(make_fuzz_target("no-such-target", NicType::kCx5).has_value());
}

// ---------------------------------------------------------------------------
// Report-driven fitness terms
// ---------------------------------------------------------------------------

TEST(Scorers, UnknownMetricThrowsAtCompositionTime) {
  EXPECT_THROW(make_fitness({FitnessTerm{"bogus", 1.0}}), YamlError);
  EXPECT_THROW(make_fitness({}), YamlError);
  TestConfig cfg;
  TestResult result;
  EXPECT_THROW(eval_fitness_metric("bogus", cfg, result), YamlError);
}

TEST(Scorers, CountersSumsAndBuiltinsCompose) {
  TestConfig cfg;
  cfg.traffic.num_msgs_per_qp = 2;
  TestResult result;
  result.finished = false;
  result.telemetry.counters["injector.dropped_by_event"] = 3;
  result.telemetry.counters["rnic.requester.retransmitted_packets"] = 2;
  result.telemetry.counters["rnic.responder.retransmitted_packets"] = 5;
  EXPECT_EQ(eval_fitness_metric("injector.dropped_by_event", cfg, result),
            3.0);
  EXPECT_EQ(
      eval_fitness_metric("sum:.retransmitted_packets", cfg, result), 7.0);
  EXPECT_EQ(eval_fitness_metric("unfinished", cfg, result), 1.0);
  // Absent counter paths read 0: the dormant-fault contract.
  EXPECT_EQ(eval_fitness_metric("injector.pause_storms", cfg, result), 0.0);
  const auto fitness = make_fitness(
      {FitnessTerm{"injector.dropped_by_event", 2.0},
       FitnessTerm{"unfinished", 10.0}});
  EXPECT_EQ(fitness(cfg, result), 16.0);
}

TEST(Scorers, LoadFitnessParsesMapsAndScalars) {
  const YamlNode root = parse_yaml(
      "fitness:\n"
      "  - {metric: mct-mean, weight: 2.5}\n"
      "  - injector.dropped_by_event\n");
  const auto terms = load_fitness(root["fitness"]);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].metric, "mct-mean");
  EXPECT_EQ(terms[0].weight, 2.5);
  EXPECT_EQ(terms[1].metric, "injector.dropped_by_event");
  EXPECT_EQ(terms[1].weight, 1.0);
  EXPECT_THROW(load_fitness(parse_yaml("fitness:\n  - nonsense\n")["fitness"]),
               YamlError);
}

TEST(CrcDifferential, CleanAcrossSeeds) {
  // The fast CRC paths must agree with the retained references on random
  // buffers, splits, and alignments, for several independent seeds.
  for (const std::uint64_t seed : {0x1CECAFEu, 0xBADF00Du, 0x5EEDu}) {
    const CrcDifferentialOutcome out = run_crc_differential(seed, 300);
    EXPECT_EQ(out.iterations, 300);
    EXPECT_EQ(out.mismatches, 0) << out.first_mismatch;
  }
}

TEST(CrcDifferential, DeterministicForSameSeed) {
  const CrcDifferentialOutcome a = run_crc_differential(42, 50);
  const CrcDifferentialOutcome b = run_crc_differential(42, 50);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.mismatches, b.mismatches);
}

TEST(CrcDifferential, TargetRegisteredAndRunsClean) {
  ASSERT_TRUE(make_fuzz_target("crc-differential", NicType::kCx5).has_value());
  GeneticFuzzer::Options options;
  options.pool_size = 2;
  options.max_iterations = 3;
  options.seed = 11;
  GeneticFuzzer fuzzer(make_crc_differential_target(NicType::kCx5), options);
  const FuzzOutcome outcome = fuzzer.run();
  // A healthy implementation never diverges from the references, so the
  // hunt must exhaust its budget without an anomaly.
  EXPECT_FALSE(outcome.anomaly.has_value());
}

}  // namespace
}  // namespace lumina
