#include "campaign/campaign_config.h"

#include <filesystem>

#include "fuzz/targets.h"

namespace lumina {
namespace {

NicType parse_nic_or_throw(const std::string& text) {
  const auto nic = parse_nic_type(text);
  if (!nic) throw YamlError("unknown nic type: " + text);
  return *nic;
}

std::vector<NicType> load_nic_list(const YamlNode& node) {
  if (node.is_null()) {
    return {NicType::kCx4Lx, NicType::kCx5, NicType::kCx6Dx, NicType::kE810};
  }
  std::vector<NicType> nics;
  for (const auto& item : node.items()) {
    nics.push_back(parse_nic_or_throw(item.as_string()));
  }
  return nics;
}

std::vector<KnownIssue> load_issue_list(const YamlNode& node) {
  if (node.is_null()) return all_known_issues();
  std::vector<KnownIssue> issues;
  for (const auto& item : node.items()) {
    const auto issue = parse_known_issue(item.as_string());
    if (!issue) throw YamlError("unknown issue: " + item.as_string());
    issues.push_back(*issue);
  }
  return issues;
}

void expand_suite(const YamlNode& node, Campaign* campaign) {
  for (const NicType nic : load_nic_list(node["nics"])) {
    for (const KnownIssue issue : load_issue_list(node["issues"])) {
      CampaignRunSpec spec;
      spec.kind = CampaignRunKind::kSuite;
      spec.nic = nic;
      spec.issue = issue;
      spec.name = "suite/" + to_string(nic) + "/" + issue_slug(issue);
      campaign->runs.push_back(std::move(spec));
    }
  }
}

void expand_fuzz(const YamlNode& node, Campaign* campaign) {
  const std::string target = node["target"].as_string();
  const NicType nic = parse_nic_or_throw(node["nic"].as_string_or("cx5"));
  if (!make_fuzz_target(target, nic)) {
    throw YamlError("unknown fuzz target: " + target);
  }
  const auto shards = node["shards"].as_int_or(1);
  if (shards < 1) throw YamlError("fuzz shards must be >= 1");

  GeneticFuzzer::Options options;  // seed is assigned per run at execution
  options.pool_size = static_cast<int>(
      node["pool-size"].as_int_or(options.pool_size));
  options.max_iterations = static_cast<int>(
      node["max-iterations"].as_int_or(options.max_iterations));

  for (std::int64_t i = 0; i < shards; ++i) {
    CampaignRunSpec spec;
    spec.kind = CampaignRunKind::kFuzz;
    spec.fuzz_target = target;
    spec.nic = nic;
    spec.fuzz_options = options;
    spec.name = "fuzz/" + target + "/" + to_string(nic) + "/shard" +
                std::to_string(i);
    campaign->runs.push_back(std::move(spec));
  }
}

void expand_experiment(const YamlNode& node, const std::string& base_dir,
                       Campaign* campaign) {
  TestConfig base;
  if (node.has("config-file")) {
    const std::filesystem::path ref = node["config-file"].as_string();
    const auto path =
        ref.is_absolute() ? ref : std::filesystem::path(base_dir) / ref;
    base = load_test_config(parse_yaml_file(path.string()));
  } else if (node.has("config")) {
    base = load_test_config(node["config"]);
  } else {
    throw YamlError("experiment run needs 'config' or 'config-file'");
  }
  const std::string name = node["name"].as_string_or("experiment");
  const auto repeat = node["repeat"].as_int_or(1);
  if (repeat < 1) throw YamlError("experiment repeat must be >= 1");

  // Cartesian product of sweep axes, in document order. Each combination
  // is materialized as (key=value) suffixes on the run name so artifact
  // directories stay self-describing.
  struct Combo {
    TestConfig config;
    std::string label;
  };
  std::vector<Combo> combos{{base, name}};
  const YamlNode& sweep = node["sweep"];
  if (sweep.is_map()) {
    for (const auto& [key, values] : sweep.entries()) {
      if (!values.is_list() || values.size() == 0) {
        throw YamlError("sweep axis '" + key + "' must be a non-empty list");
      }
      std::vector<Combo> next;
      for (const Combo& combo : combos) {
        for (const auto& value : values.items()) {
          Combo expanded = combo;
          apply_traffic_override(expanded.config, key, value);
          expanded.label += "/" + key + "=" + value.as_string();
          next.push_back(std::move(expanded));
        }
      }
      combos = std::move(next);
    }
  }

  for (const Combo& combo : combos) {
    // A sweep can strand an event (num-connections below its qpn): fail at
    // load and name the run, not mid-campaign.
    try {
      combo.config.check_event_qpns();
    } catch (const YamlError& error) {
      throw YamlError("run " + combo.label + ": " + error.what());
    }
    for (std::int64_t i = 0; i < repeat; ++i) {
      CampaignRunSpec spec;
      spec.kind = CampaignRunKind::kExperiment;
      spec.config = combo.config;
      spec.name = combo.label + "/rep" + std::to_string(i);
      campaign->runs.push_back(std::move(spec));
    }
  }
}

}  // namespace

Campaign load_campaign(const YamlNode& root, const std::string& base_dir) {
  const YamlNode& node = root.has("campaign") ? root["campaign"] : root;
  Campaign campaign;
  campaign.name = node["name"].as_string_or("campaign");
  campaign.seed = static_cast<std::uint64_t>(
      node["seed"].as_int_or(static_cast<std::int64_t>(campaign.seed)));

  const YamlNode& runs = node["runs"];
  if (!runs.is_list() || runs.size() == 0) {
    throw YamlError("campaign needs a non-empty 'runs' list");
  }
  for (const auto& run : runs.items()) {
    const std::string kind = run["kind"].as_string();
    if (kind == "suite") {
      expand_suite(run, &campaign);
    } else if (kind == "fuzz") {
      expand_fuzz(run, &campaign);
    } else if (kind == "experiment") {
      expand_experiment(run, base_dir, &campaign);
    } else {
      throw YamlError("unknown campaign run kind: " + kind);
    }
  }
  return campaign;
}

Campaign load_campaign_file(const std::string& path) {
  std::string base_dir = std::filesystem::path(path).parent_path().string();
  if (base_dir.empty()) base_dir = ".";
  return load_campaign(parse_yaml_file(path), base_dir);
}

}  // namespace lumina
