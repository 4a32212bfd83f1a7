// Unit tests for the campaign layer: the lock-free parallel_map primitive,
// per-run seed derivation, YAML campaign expansion, and the deterministic
// summary/aggregation contract.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "campaign/campaign.h"
#include "campaign/campaign_config.h"
#include "campaign/parallel.h"
#include "fuzz/targets.h"
#include "suite/bug_detectors.h"

namespace lumina {
namespace {

TEST(ParallelMap, PreservesIndexOrder) {
  // Make early indices the slowest so completion order inverts spec order.
  const auto results = parallel_map<int>(16, 8, [](std::size_t i) {
    volatile int sink = 0;
    for (std::size_t n = 0; n < (16 - i) * 20000; ++n) sink = sink + 1;
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMap, EveryIndexRunsExactlyOnce) {
  std::atomic<int> calls{0};
  const auto results = parallel_map<std::size_t>(64, 8, [&](std::size_t i) {
    calls.fetch_add(1);
    return i;
  });
  EXPECT_EQ(calls.load(), 64);
  std::set<std::size_t> seen(results.begin(), results.end());
  EXPECT_EQ(seen.size(), 64u);
}

TEST(ParallelMap, SequentialAndParallelAgree) {
  const auto seq = parallel_map<std::uint64_t>(
      32, 1, [](std::size_t i) { return derive_run_seed(7, i); });
  const auto par = parallel_map<std::uint64_t>(
      32, 8, [](std::size_t i) { return derive_run_seed(7, i); });
  EXPECT_EQ(seq, par);
}

TEST(ParallelMap, RethrowsLowestIndexException) {
  try {
    parallel_map<int>(16, 4, [](std::size_t i) -> int {
      if (i == 3 || i == 11) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom 3");
  }
}

TEST(ParallelMap, HandlesEmptyAndOversubscribed) {
  EXPECT_TRUE((parallel_map<int>(0, 8, [](std::size_t) { return 1; }))
                  .empty());
  // More workers than items must still produce every result once.
  const auto r = parallel_map<int>(3, 64, [](std::size_t i) {
    return static_cast<int>(i);
  });
  EXPECT_EQ(r, (std::vector<int>{0, 1, 2}));
}

TEST(SeedDerivation, StableAndDistinct) {
  // The per-run key is a pure function of (campaign seed, index)...
  EXPECT_EQ(derive_run_seed(42, 0), derive_run_seed(42, 0));
  // ...distinct across indices and campaign seeds.
  std::set<std::uint64_t> keys;
  for (std::uint64_t s = 0; s < 4; ++s) {
    for (std::uint64_t i = 0; i < 64; ++i) keys.insert(derive_run_seed(s, i));
  }
  EXPECT_EQ(keys.size(), 4u * 64u);
}

TEST(SeedDerivation, MatchesFnv1aReference) {
  // FNV-1a of eight zero bytes folded over the offset basis.
  EXPECT_EQ(fnv1a64(0), 0xa8c7f832281a39c5ULL);
}

TEST(SuiteCampaign, ParallelSuiteMatchesSequential) {
  const auto seq = run_bug_suite(NicType::kE810, CampaignOptions{1, 1});
  const auto par = run_bug_suite(NicType::kE810, CampaignOptions{4, 1});
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].issue, par[i].issue);
    EXPECT_EQ(seq[i].affected, par[i].affected);
    EXPECT_EQ(seq[i].evidence, par[i].evidence);
  }
}

TEST(IssueSlugs, RoundTrip) {
  for (const KnownIssue issue : all_known_issues()) {
    const auto parsed = parse_known_issue(issue_slug(issue));
    ASSERT_TRUE(parsed.has_value()) << issue_slug(issue);
    EXPECT_EQ(*parsed, issue);
  }
  EXPECT_FALSE(parse_known_issue("no-such-issue").has_value());
}

TEST(FuzzTargets, LookupByName) {
  EXPECT_TRUE(make_fuzz_target("noisy-neighbor", NicType::kCx4Lx).has_value());
  EXPECT_TRUE(make_fuzz_target("lossy-network", NicType::kCx5).has_value());
  EXPECT_FALSE(make_fuzz_target("nope", NicType::kCx5).has_value());
}

// -- campaign YAML expansion ----------------------------------------------

constexpr const char* kCampaignYaml = R"(campaign:
  name: unit
  seed: 7
  runs:
    - kind: experiment
      name: sweep
      repeat: 2
      sweep:
        message-size: [2048, 4096]
        num-connections: [1, 2]
      config:
        traffic:
          rdma-verb: write
          num-msgs-per-qp: 2
    - kind: fuzz
      target: lossy-network
      nic: cx5
      shards: 3
      pool-size: 2
      max-iterations: 1
    - kind: suite
      nics: [e810]
      issues: [cnp-rate-limiting]
)";

TEST(CampaignConfig, ExpandsRunsDeterministically) {
  const Campaign campaign = load_campaign(parse_yaml(kCampaignYaml));
  EXPECT_EQ(campaign.name, "unit");
  EXPECT_EQ(campaign.seed, 7u);
  // 2 sizes x 2 connection counts x 2 repeats + 3 shards + 1 probe.
  ASSERT_EQ(campaign.runs.size(), 8u + 3u + 1u);
  EXPECT_EQ(campaign.runs[0].name, "sweep/message-size=2048/num-connections=1/rep0");
  EXPECT_EQ(campaign.runs[0].config.traffic.message_size, 2048u);
  EXPECT_EQ(campaign.runs[0].config.traffic.num_connections, 1);
  EXPECT_EQ(campaign.runs[7].name, "sweep/message-size=4096/num-connections=2/rep1");
  EXPECT_EQ(campaign.runs[7].config.traffic.message_size, 4096u);
  EXPECT_EQ(campaign.runs[7].config.traffic.num_connections, 2);
  EXPECT_EQ(campaign.runs[8].kind, CampaignRunKind::kFuzz);
  EXPECT_EQ(campaign.runs[8].name, "fuzz/lossy-network/cx5/shard0");
  EXPECT_EQ(campaign.runs[11].kind, CampaignRunKind::kSuite);
  EXPECT_EQ(campaign.runs[11].issue, KnownIssue::kCnpRateLimiting);
}

TEST(CampaignConfig, RejectsBadDocuments) {
  EXPECT_THROW(load_campaign(parse_yaml("campaign:\n  name: x\n")),
               YamlError);
  EXPECT_THROW(
      load_campaign(parse_yaml(
          "runs:\n  - kind: teleport\n")),
      YamlError);
  EXPECT_THROW(
      load_campaign(parse_yaml(
          "runs:\n  - kind: fuzz\n    target: nope\n")),
      YamlError);
  EXPECT_THROW(
      load_campaign(parse_yaml(
          "runs:\n  - kind: experiment\n    name: x\n")),
      YamlError);
  EXPECT_THROW(
      load_campaign(parse_yaml("runs:\n"
                               "  - kind: experiment\n"
                               "    config:\n"
                               "      traffic:\n"
                               "        mtu: 1024\n"
                               "    sweep:\n"
                               "      no-such-knob: [1]\n")),
      YamlError);
}

TEST(Campaign, SweepThatStrandsAnEventQpnFailsAtLoad) {
  // num-connections: 1 leaves the qpn-2 event without a connection: the
  // campaign must fail at load and name the run, not abort mid-campaign.
  const std::string error = [] {
    try {
      load_campaign(parse_yaml("runs:\n"
                               "  - kind: experiment\n"
                               "    name: strand\n"
                               "    config:\n"
                               "      traffic:\n"
                               "        num-connections: 2\n"
                               "        data-pkt-events:\n"
                               "        - {qpn: 2, psn: 3, type: drop}\n"
                               "    sweep:\n"
                               "      num-connections: [2, 1]\n"));
    } catch (const YamlError& e) {
      return std::string(e.what());
    }
    return std::string();
  }();
  EXPECT_NE(error.find("strand/num-connections=1"), std::string::npos)
      << error;
  EXPECT_NE(error.find("data-pkt-events[0].qpn"), std::string::npos) << error;
}

TEST(CampaignConfig, AppliesTrafficOverrides) {
  TestConfig cfg;
  apply_traffic_override(cfg, "message-size", YamlNode::scalar("4096"));
  apply_traffic_override(cfg, "rdma-verb", YamlNode::scalar("read"));
  apply_traffic_override(cfg, "tx-depth", YamlNode::scalar("3"));
  EXPECT_EQ(cfg.traffic.message_size, 4096u);
  EXPECT_EQ(cfg.traffic.verb, RdmaVerb::kRead);
  EXPECT_EQ(cfg.traffic.tx_depth, 3);
  EXPECT_THROW(
      apply_traffic_override(cfg, "bogus", YamlNode::scalar("1")),
      YamlError);
}

TEST(CampaignSummary, CsvIsDeterministicAndWallClockFree) {
  Campaign campaign;
  campaign.name = "csv";
  for (int i = 0; i < 3; ++i) {
    CampaignRunSpec spec;
    spec.kind = CampaignRunKind::kExperiment;
    spec.name = "exp/rep" + std::to_string(i);
    spec.config.traffic.num_msgs_per_qp = 2;
    campaign.runs.push_back(spec);
  }
  const auto a = run_campaign(campaign, CampaignOptions{1, 99});
  const auto b = run_campaign(campaign, CampaignOptions{3, 99});
  EXPECT_EQ(campaign_summary_csv(a), campaign_summary_csv(b));
  // Wall-clock numbers exist on the report but never reach the CSV.
  EXPECT_EQ(campaign_summary_csv(a).find("wall"), std::string::npos);
  for (const auto& run : a.runs) {
    EXPECT_GT(run.metrics.sim_events, 0u);
    EXPECT_TRUE(run.result.has_value());
  }
}

TEST(CampaignOptions, RejectsRetiredShardCounts) {
  Campaign campaign;
  campaign.runs.push_back(CampaignRunSpec{});
  CampaignOptions options;
  options.shards = 4;
  EXPECT_THROW(run_campaign(campaign, options), std::invalid_argument);
}

}  // namespace
}  // namespace lumina
