// Determinism contract of fuzz campaigns (docs/fuzzing.md): thread count
// is a pure throughput knob (corpora and the deterministic report section
// are byte-identical for any --jobs), and an interrupted hunt resumed from
// its checkpoints converges to the same final corpora as an uninterrupted
// one — the FuzzCorpusState carries the Rng across the boundary.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/fuzz_campaign.h"

namespace lumina {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCampaignYaml = R"(fuzz-campaign:
  name: scenario-hunt
  target: scenario
  nic: cx5
  hosts: 3
  shards: 2
  pool-size: 2
  max-iterations: 2
  seed: 2023
  corpus-dir: corpus
  fitness:
    - {metric: mct-mean, weight: 1.0}
    - {metric: injector.dropped_by_event, weight: 25}
    - {metric: sum:.retransmitted_packets, weight: 5}
)";

std::string scratch_dir(const std::string& tag) {
  const auto dir =
      fs::temp_directory_path() /
      ("lumina_fuzz_campaign_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

TEST(FuzzCampaign, LoaderParsesSpecAndValidatesEagerly) {
  const FuzzCampaignSpec spec = load_fuzz_campaign(parse_yaml(kCampaignYaml));
  EXPECT_EQ(spec.name, "scenario-hunt");
  EXPECT_EQ(spec.target, "scenario");
  EXPECT_EQ(spec.nic, NicType::kCx5);
  EXPECT_EQ(spec.scenario_hosts, 3);
  EXPECT_EQ(spec.shards, 2);
  EXPECT_EQ(spec.seed, 2023u);
  EXPECT_EQ(spec.fuzzer.pool_size, 2);
  EXPECT_EQ(spec.fuzzer.max_iterations, 2);
  EXPECT_EQ(spec.corpus_dir, "corpus");
  ASSERT_EQ(spec.fitness.size(), 3u);
  EXPECT_EQ(spec.fitness[1].weight, 25.0);

  // Bad specs fail at load time, before any simulation starts.
  EXPECT_THROW(
      load_fuzz_campaign(parse_yaml("fuzz-campaign:\n  target: nope\n")),
      YamlError);
  EXPECT_THROW(load_fuzz_campaign(parse_yaml(
                   "fuzz-campaign:\n  fitness:\n    - bogus-metric\n")),
               YamlError);
  EXPECT_THROW(load_fuzz_campaign(parse_yaml("traffic:\n  mtu: 1024\n")),
               YamlError);
}

TEST(FuzzCampaign, ArtifactsAreByteIdenticalAcrossJobCounts) {
  const FuzzCampaignSpec spec = load_fuzz_campaign(parse_yaml(kCampaignYaml));

  CampaignOptions jobs1{1, spec.seed};
  CampaignOptions jobs4{4, spec.seed};
  const FuzzCampaignRunReport a = run_fuzz_campaign_spec(spec, jobs1);
  const FuzzCampaignRunReport b = run_fuzz_campaign_spec(spec, jobs4);

  ASSERT_EQ(a.shards.size(), 2u);
  ASSERT_EQ(b.shards.size(), 2u);
  EXPECT_TRUE(a.all_done());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    // Every shard ran its full budget (pool 2 + 2 mutations) or stopped
    // early on an anomaly; either way the corpus bytes must match.
    EXPECT_GT(a.shards[i].state.steps_done, 0) << "shard " << i;
    EXPECT_FALSE(a.shards[i].corpus.empty()) << "shard " << i;
    EXPECT_EQ(a.shards[i].corpus, b.shards[i].corpus) << "shard " << i;
  }
  EXPECT_EQ(a.anomaly_shard, b.anomaly_shard);

  // The deterministic report section is the byte-comparable summary.
  const auto report_a = fuzz_campaign_report_json(a);
  const auto report_b = fuzz_campaign_report_json(b);
  EXPECT_EQ(telemetry::serialize_deterministic(report_a.deterministic),
            telemetry::serialize_deterministic(report_b.deterministic));
  EXPECT_EQ(report_a.deterministic.counters.at("fuzz.shards"), 2u);
  EXPECT_GT(report_a.deterministic.counters.at("fuzz.steps_total"), 0u);
}

TEST(FuzzCampaign, InterruptedAndResumedHuntMatchesUninterrupted) {
  const FuzzCampaignSpec spec = load_fuzz_campaign(parse_yaml(kCampaignYaml));
  const CampaignOptions options{2, spec.seed};

  const FuzzCampaignRunReport uninterrupted =
      run_fuzz_campaign_spec(spec, options);
  ASSERT_TRUE(uninterrupted.all_done());

  // Budgeted hunts: one Algorithm 1 step per shard per invocation, each
  // checkpointing to disk and resuming from what the previous wrote.
  FuzzCampaignSpec budgeted = spec;
  budgeted.step_budget = 1;
  const std::string dir = scratch_dir("resume");
  FuzzCampaignRunReport last;
  int invocations = 0;
  bool resumed_any = false;
  do {
    const auto resume = load_fuzz_corpora(dir, budgeted.shards);
    for (const auto& state : resume) {
      resumed_any |= state.has_value();
    }
    last = run_fuzz_campaign_spec(budgeted, options, resume);
    std::string failed;
    ASSERT_TRUE(write_fuzz_corpora(last, dir, &failed)) << failed;
    ASSERT_LT(++invocations, 32) << "hunt failed to converge";
  } while (!last.all_done());

  EXPECT_GT(invocations, 1);  // the budget actually interrupted the hunt
  EXPECT_TRUE(resumed_any);
  ASSERT_EQ(last.shards.size(), uninterrupted.shards.size());
  for (std::size_t i = 0; i < last.shards.size(); ++i) {
    EXPECT_TRUE(last.shards[i].resumed) << "shard " << i;
    EXPECT_EQ(last.shards[i].corpus, uninterrupted.shards[i].corpus)
        << "shard " << i;
  }
  EXPECT_EQ(last.anomaly_shard, uninterrupted.anomaly_shard);
  fs::remove_all(dir);
}

TEST(FuzzCampaign, CorpusWriteToAFullDeviceNamesTheShard) {
  // A corpus file is smaller than a stdio buffer, so its only write happens
  // at close: the flush that fails there must fail the call.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FuzzCampaignRunReport report;
  report.shards.resize(2);
  const std::string dir = scratch_dir("devfull");
  fs::create_directories(dir);
  fs::create_symlink("/dev/full", dir + "/shard_001.yaml");
  std::string failed;
  EXPECT_FALSE(write_fuzz_corpora(report, dir, &failed));
  EXPECT_EQ(failed, dir + "/shard_001.yaml");
  fs::remove_all(dir);  // removes the link, not the device
}

}  // namespace
}  // namespace lumina
