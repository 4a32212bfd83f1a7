// Determinism property test for the campaign runner: the same campaign run
// at --jobs 1, 4, and 8 must produce byte-identical aggregated artifacts
// (summary.csv plus every per-run results directory). This is the contract
// that makes parallel campaigns trustworthy — thread count is a pure
// throughput knob, never an output knob.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/campaign_config.h"
#include "util/file_io.h"

namespace lumina {
namespace {

namespace fs = std::filesystem;

// A mixed campaign exercising every run kind: a swept+repeated Go-Back-N
// drop experiment (8 runs), three fuzz shards, and a two-issue suite probe.
constexpr const char* kCampaignYaml = R"(campaign:
  name: determinism
  seed: 2023
  runs:
    - kind: experiment
      name: gbn-drop
      repeat: 2
      sweep:
        message-size: [4096, 10240]
        num-connections: [1, 2]
      config:
        traffic:
          rdma-verb: write
          num-msgs-per-qp: 3
          mtu: 1024
          data-pkt-events:
          - {qpn: 1, psn: 3, type: drop, iter: 1}
    - kind: fuzz
      target: lossy-network
      nic: cx5
      shards: 3
      pool-size: 2
      max-iterations: 1
    - kind: suite
      nics: [e810]
      issues: [cnp-rate-limiting, counter-inconsistency]
)";

std::string scratch_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("lumina_campaign_det_" + tag + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

/// Every file of the tree, whole. Each report.json in a campaign tree has an
/// empty wall section, so reports compare byte for byte like the rest.
std::map<std::string, std::string> snapshot_tree(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto bytes = read_file(entry.path().string());
    EXPECT_TRUE(bytes.has_value()) << entry.path();
    files[fs::relative(entry.path(), root).string()] = bytes.value_or("");
  }
  return files;
}

void expect_identical_trees(const std::map<std::string, std::string>& a,
                            const std::map<std::string, std::string>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [path, bytes] : a) {
    const auto it = b.find(path);
    ASSERT_NE(it, b.end()) << label << ": missing " << path;
    EXPECT_EQ(bytes, it->second) << label << ": differs at " << path;
  }
}

std::map<std::string, std::string> run_at_jobs(const Campaign& campaign,
                                               int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seed = campaign.seed;
  const CampaignReport report = run_campaign(campaign, options);
  EXPECT_EQ(report.runs.size(), campaign.runs.size());

  const std::string dir = scratch_dir("jobs" + std::to_string(jobs));
  std::string failed;
  EXPECT_TRUE(write_campaign_artifacts(report, dir, &failed)) << failed;
  auto tree = snapshot_tree(dir);
  fs::remove_all(dir);
  return tree;
}

TEST(CampaignDeterminism, ArtifactsAreByteIdenticalAcrossJobCounts) {
  const Campaign campaign = load_campaign(parse_yaml(kCampaignYaml));
  ASSERT_EQ(campaign.runs.size(), 8u + 3u + 2u);

  const auto jobs1 = run_at_jobs(campaign, 1);
  const auto jobs4 = run_at_jobs(campaign, 4);
  const auto jobs8 = run_at_jobs(campaign, 8);

  // Sanity: the aggregate is non-trivial — a summary plus one results
  // directory (pcap, counters, flows...) per experiment run.
  ASSERT_TRUE(jobs1.count("summary.csv"));
  ASSERT_GT(jobs1.size(), 8u * 5u);

  expect_identical_trees(jobs1, jobs4, "jobs=1 vs jobs=4");
  expect_identical_trees(jobs1, jobs8, "jobs=1 vs jobs=8");
}

TEST(CampaignDeterminism, ReportFieldsMatchAcrossJobCounts) {
  const Campaign campaign = load_campaign(parse_yaml(kCampaignYaml));
  const auto a = run_campaign(campaign, CampaignOptions{1, campaign.seed});
  const auto b = run_campaign(campaign, CampaignOptions{8, campaign.seed});
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].name, b.runs[i].name) << i;
    EXPECT_EQ(a.runs[i].seed, b.runs[i].seed) << i;
    EXPECT_EQ(a.runs[i].ok, b.runs[i].ok) << i;
    EXPECT_EQ(a.runs[i].summary, b.runs[i].summary) << i;
    EXPECT_EQ(a.runs[i].metrics.sim_duration, b.runs[i].metrics.sim_duration)
        << i;
    EXPECT_EQ(a.runs[i].metrics.sim_events, b.runs[i].metrics.sim_events)
        << i;
  }
  EXPECT_EQ(campaign_summary_csv(a), campaign_summary_csv(b));
}

TEST(CampaignDeterminism, CampaignSeedChangesFuzzOutcomes) {
  // The other side of the determinism coin: different campaign seeds must
  // actually reach the per-run RNGs (fuzz shards draw from them directly).
  Campaign campaign = load_campaign(parse_yaml(kCampaignYaml));
  const auto a = run_campaign(campaign, CampaignOptions{4, 1});
  const auto b = run_campaign(campaign, CampaignOptions{4, 2});
  ASSERT_EQ(a.runs.size(), b.runs.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_NE(a.runs[i].seed, b.runs[i].seed) << i;
    if (a.runs[i].summary != b.runs[i].summary) any_difference = true;
  }
  EXPECT_TRUE(any_difference)
      << "campaign seed had no observable effect on any run";
}

}  // namespace
}  // namespace lumina
