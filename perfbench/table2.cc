// table2: the paper's headline screen. detect_issue over the six Table 2
// issues x four NIC models, the work behind `lumina_run --screen`. The
// probes are fixed by the paper; the seed only permutes their order, and
// every verdict must match Table 2's affected set whatever the order.
#include <string>
#include <utility>
#include <vector>

#include "suite/bug_detectors.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lumina::KnownIssue;
using lumina::NicType;

constexpr NicType kNics[] = {NicType::kCx4Lx, NicType::kCx5, NicType::kCx6Dx,
                             NicType::kE810};

/// Table 2: which NICs each issue affects.
bool table2_affected(KnownIssue issue, NicType nic) {
  switch (issue) {
    case KnownIssue::kNonWorkConservingEts: return nic == NicType::kCx6Dx;
    case KnownIssue::kNoisyNeighbor: return nic == NicType::kCx4Lx;
    case KnownIssue::kInteropMigReq: return nic == NicType::kE810;
    case KnownIssue::kCounterInconsistency:
      return nic == NicType::kCx4Lx || nic == NicType::kE810;
    case KnownIssue::kCnpRateLimiting: return true;
    case KnownIssue::kAdaptiveRetransDeviation: return nic != NicType::kE810;
  }
  return false;
}

struct Probe {
  KnownIssue issue;
  NicType nic;
  bool expected;
  std::string name;
};

class Table2 final : public Workload {
 public:
  explicit Table2(const WorkloadOptions& options) : options_(options) {}

  void prepare(std::uint64_t seed) override {
    probes_.clear();
    for (const NicType nic : kNics) {
      for (const KnownIssue issue : lumina::all_known_issues()) {
        bool expected = table2_affected(issue, nic);
        if (options_.expect_wrong_verdict &&
            issue == KnownIssue::kNonWorkConservingEts &&
            nic == NicType::kCx5) {
          expected = !expected;
        }
        probes_.push_back(Probe{issue, nic, expected,
                                lumina::to_string(nic) + "/" +
                                    lumina::issue_slug(issue)});
      }
    }
    SeedStream rng(seed);
    for (std::size_t i = probes_.size() - 1; i > 0; --i) {
      std::swap(probes_[i], probes_[rng.next_in(0, i)]);
    }
  }

  PassResult pass() override { return run_probes(nullptr); }
  PassResult traced_pass(Tracer& tracer) override {
    return run_probes(&tracer);
  }

 private:
  PassResult run_probes(Tracer* tracer) {
    PassResult out;
    for (const Probe& probe : probes_) {
      const auto start = Clock::now();
      const lumina::DetectionResult detection =
          lumina::detect_issue(probe.issue, probe.nic);
      const auto end = Clock::now();
      if (tracer != nullptr) {
        tracer->span("suite." + lumina::issue_slug(probe.issue) + "_ms",
                     start, end);
      }
      RunSample run;
      run.name = probe.name;
      run.wall_ms = ms_between(start, end);
      run.ok = detection.affected == probe.expected;
      if (!run.ok) {
        run.failure = std::string(detection.affected ? "affected" : "clean") +
                      ", expected " + (probe.expected ? "affected" : "clean");
      }
      Digest digest;
      digest.u64(detection.affected);
      digest.text(detection.evidence);
      run.digest = digest.value();
      out.wall_ms += run.wall_ms;
      out.runs.push_back(std::move(run));
    }
    return out;
  }

  WorkloadOptions options_;
  std::vector<Probe> probes_;
};

}  // namespace

std::unique_ptr<Workload> make_table2(const WorkloadOptions& options) {
  return std::make_unique<Table2>(options);
}

}  // namespace perfbench
