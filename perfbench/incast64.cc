// incast64: one large run, the converse of `campaign` (fixed cost is under
// 1% of a run). 63 CX6 Dx senders each write 8 x 64 KiB into one sink
// through the event injector, with ECN marking at 30 KiB of egress queue
// and one drop at a seed-placed (connection, PSN). The run is followed by
// the `lumina_run` analyzer pass: retransmission episodes, the Go-Back-N
// FSM, CNPs, counter consistency, and the report serialization.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analyzers/cnp_analyzer.h"
#include "analyzers/counter_analyzer.h"
#include "analyzers/gbn_fsm.h"
#include "analyzers/retrans_perf.h"
#include "config/yaml_lite.h"
#include "orchestrator_probe.h"
#include "telemetry/report.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSenders = 63;
constexpr int kMessages = 8;
constexpr int kLastDropPsn = 48;  // of 64 packets in the first message

std::string incast_yaml(std::uint64_t drop_connection, std::uint64_t drop_psn) {
  std::string yaml = "hosts:\n";
  for (int i = 0; i < kSenders; ++i) {
    yaml += "- name: sender" + std::to_string(i) + "\n  nic:\n    type: cx6\n";
  }
  yaml += "- name: sink\n  nic:\n    type: cx6\nconnections:\n";
  for (int i = 0; i < kSenders; ++i) {
    yaml += "- {src: sender" + std::to_string(i) + ", dst: sink}\n";
  }
  yaml += "traffic:\n"
          "  rdma-verb: write\n"
          "  num-msgs-per-qp: " + std::to_string(kMessages) + "\n" +
          "  mtu: 1024\n"
          "  message-size: 65536\n"
          "  data-pkt-events:\n"
          "  - {qpn: " + std::to_string(drop_connection) +
          ", psn: " + std::to_string(drop_psn) + ", type: drop, iter: 1}\n";
  return yaml;
}

/// The analyzer pass `lumina_run` prints after a run.
struct Analysis {
  std::vector<lumina::RetransEpisode> episodes;
  lumina::GbnReport gbn;
  lumina::CnpReport cnps;
  lumina::CounterReport counters;
  std::size_t report_bytes = 0;
};

/// Runs `fn`, recording it as span `name` when tracing.
template <typename Fn>
auto timed(Tracer* tracer, const char* name, Fn&& fn) {
  const auto start = Clock::now();
  auto value = fn();
  if (tracer != nullptr) tracer->span(name, start, Clock::now());
  return value;
}

Analysis analyze(const lumina::TestResult& result, Tracer* tracer) {
  Analysis a;
  a.episodes = timed(tracer, "analyzers.retrans_ms", [&] {
    return lumina::analyze_retransmissions(result.trace, result.verb);
  });
  a.gbn = timed(tracer, "analyzers.gbn_ms", [&] {
    return lumina::check_gbn_compliance(result.trace, result.verb);
  });
  a.cnps = timed(tracer, "analyzers.cnp_ms", [&] {
    return lumina::analyze_cnps(result.trace,
                                {result.connections.at(0).responder.ip});
  });
  a.counters = timed(tracer, "analyzers.counters_ms", [&] {
    std::vector<lumina::HostCountersView> views(result.host_counters.size());
    for (std::size_t h = 0; h < views.size(); ++h) {
      views[h].counters = result.host_counters[h];
    }
    std::vector<std::pair<int, int>> connection_hosts;
    for (const auto& c : result.connections) {
      connection_hosts.emplace_back(c.src_host, c.dst_host);
      auto& src_ips = views.at(static_cast<std::size_t>(c.src_host)).ips;
      if (std::find(src_ips.begin(), src_ips.end(), c.requester.ip) ==
          src_ips.end()) {
        src_ips.push_back(c.requester.ip);
      }
      auto& dst_ips = views.at(static_cast<std::size_t>(c.dst_host)).ips;
      if (std::find(dst_ips.begin(), dst_ips.end(), c.responder.ip) ==
          dst_ips.end()) {
        dst_ips.push_back(c.responder.ip);
      }
    }
    return lumina::check_counters_hosts(result.trace, result.verb, views,
                                        connection_hosts);
  });
  a.report_bytes = timed(tracer, "telemetry.serialize_ms", [&] {
    lumina::telemetry::RunReport report;
    report.name = "incast64";
    report.deterministic = result.telemetry;
    return lumina::telemetry::serialize_report(report).size();
  });
  return a;
}

/// Fills the sample's verdict and digest: the injected drop must fire, and
/// the run must finish every message with §3.5 integrity intact and pass
/// the Go-Back-N check.
void judge(const lumina::TestResult& result, const Analysis& a,
           RunSample& sample) {
  std::size_t completed = 0;
  bool aborted = false;
  for (const auto& flow : result.flows) {
    completed += flow.completed();
    aborted = aborted || flow.aborted;
  }
  const std::size_t expected = static_cast<std::size_t>(kSenders) * kMessages;
  const std::uint64_t dropped = result.switch_counters.dropped_by_event;
  sample.ok = result.finished && result.integrity.ok() && !aborted &&
              completed == expected && a.gbn.compliant() && dropped == 1;
  if (!sample.ok) {
    sample.failure = "finished=" + std::to_string(result.finished) +
                     " integrity=" + result.integrity.to_string() +
                     " messages=" + std::to_string(completed) + "/" +
                     std::to_string(expected) + " gbn_violations=" +
                     std::to_string(a.gbn.violations.size()) +
                     " injected_drops=" + std::to_string(dropped);
  }
  Digest digest;
  digest.u64(digest_result(result));
  digest.u64(a.episodes.size());
  for (const auto& ep : a.episodes) {
    digest.u64(ep.psn);
    digest.u64(ep.iter);
    digest.u64(static_cast<std::uint64_t>(ep.drop_time));
    digest.u64(ep.timeout_recovery);
    digest.u64(static_cast<std::uint64_t>(ep.nack_time.value_or(-1)));
    digest.u64(static_cast<std::uint64_t>(ep.retransmit_time.value_or(-1)));
  }
  digest.u64(a.gbn.flows_checked);
  digest.u64(a.gbn.episodes_seen);
  digest.u64(a.gbn.violations.size());
  digest.u64(a.cnps.cnps.size());
  digest.u64(a.cnps.ecn_marked_data_packets);
  digest.u64(a.counters.inconsistencies.size());
  sample.digest = digest.value();
}

lumina::TestConfig load_config(const std::string& yaml) {
  lumina::TestConfig config = lumina::load_test_config(lumina::parse_yaml(yaml));
  config.normalize();
  return config;
}

class Incast64 final : public Workload {
 public:
  void prepare(std::uint64_t seed) override {
    SeedStream rng(seed);
    // The drop lands early in the first message: the opening burst of all
    // 63 senders overflows the sink port's buffer and the tail drops send
    // flows into retransmission round 2, after which an iter-1 rule can no
    // longer match. Mid-message, the responder NAKs the gap.
    const std::uint64_t connection = rng.next_in(1, kSenders);
    const std::uint64_t psn = rng.next_in(2, kLastDropPsn);
    yaml_ = incast_yaml(connection, psn);
    config_ = load_config(yaml_);
    options_.switch_options.ecn_marking_threshold_bytes = 30 * 1024;
    options_.seed = rng.next();
  }

  PassResult pass() override {
    RunSample sample;
    sample.name = "incast64";
    const auto start = Clock::now();
    auto orch = std::make_unique<lumina::Orchestrator>(config_, options_);
    const lumina::TestResult& result = orch->run();
    const Analysis analysis = analyze(result, nullptr);
    const auto end = Clock::now();
    judge(result, analysis, sample);
    const auto teardown_start = Clock::now();
    orch.reset();
    sample.wall_ms = ms_between(start, end) +
                     ms_between(teardown_start, Clock::now());
    PassResult out;
    out.wall_ms = sample.wall_ms;
    out.runs.push_back(std::move(sample));
    return out;
  }

  PassResult traced_pass(Tracer& tracer) override {
    const auto load_start = Clock::now();
    const lumina::TestConfig config = load_config(yaml_);
    tracer.span("config.load_ms", load_start, Clock::now());

    RunSample sample;
    sample.name = "incast64";
    double analysis_ms = 0;
    const double run_ms = traced_orchestrator_run(
        config, options_, tracer, [&](lumina::Orchestrator& orch) {
          const auto start = Clock::now();
          const Analysis analysis = analyze(orch.result(), &tracer);
          analysis_ms = ms_between(start, Clock::now());
          judge(orch.result(), analysis, sample);
        });
    sample.wall_ms = run_ms + analysis_ms;
    PassResult out;
    out.wall_ms = sample.wall_ms;
    out.runs.push_back(std::move(sample));
    return out;
  }

 private:
  std::string yaml_;
  lumina::TestConfig config_;
  lumina::Orchestrator::Options options_;
};

}  // namespace

std::unique_ptr<Workload> make_incast64(const WorkloadOptions&) {
  return std::make_unique<Incast64>();
}

}  // namespace perfbench
