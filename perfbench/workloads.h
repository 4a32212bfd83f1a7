// The benchmark's workloads. Each generates its inputs from the seed, runs
// passes of user-visible runs, and checks every run's outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the workload's configs from `seed` and parses them: the
  /// input half of set-up (the other half is one warm-up pass).
  virtual void prepare(std::uint64_t seed) = 0;

  /// One pass over every run, untraced.
  virtual PassResult pass() = 0;

  /// The same runs, in the same order and with the same digests, with
  /// per-layer spans and counts recorded into `tracer` (which has already
  /// begun the pass). `wall_ms` covers the traced work that mirrors pass().
  virtual PassResult traced_pass(Tracer& tracer) = 0;

  /// Per-layer values measured once per traced invocation, after the
  /// passes, rather than per pass.
  virtual Tracer::Totals traced_extras() { return {}; }
};

struct WorkloadOptions {
  /// Smoke-test hook: expect the wrong Table 2 verdict for one probe.
  bool expect_wrong_verdict = false;
};

std::unique_ptr<Workload> make_table2(const WorkloadOptions& options);
std::unique_ptr<Workload> make_campaign(const WorkloadOptions& options);
std::unique_ptr<Workload> make_incast64(const WorkloadOptions& options);

}  // namespace perfbench
