// Measurement plumbing shared by every workload: wall clock, the output
// digest behind the correctness gate, the in-memory span recorder of the
// traced run, and the summary statistics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lumina {
struct TestResult;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// splitmix64: the benchmark's own generator, so the inputs a seed yields
/// never depend on the library's RNG.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi] (inclusive).
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a accumulator over a run's deterministic outputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of everything a run reports that is a pure function of (config,
/// seed): the reconstructed trace, integrity, counters, flows and the
/// telemetry snapshot. The kernel-shape `sim.*` metrics are left out, since
/// the traced run's probe events legitimately change them.
std::uint64_t digest_result(const lumina::TestResult& result);

/// One user-visible run inside a pass.
struct RunSample {
  std::string name;
  double wall_ms = 0;
  bool ok = true;
  std::string failure;  ///< Why `ok` is false.
  std::uint64_t digest = 0;
};

/// One pass over a workload's runs. `wall_ms` covers only the timed work,
/// never the benchmark's own checks.
struct PassResult {
  double wall_ms = 0;
  std::vector<RunSample> runs;
};

/// Spans and counts of the traced run, kept in memory and written once at
/// the end. Every span's duration and every count also accumulates, by
/// name, into the current pass's totals, from which the per-layer metrics
/// are taken.
class Tracer {
 public:
  using Totals = std::map<std::string, double>;

  void begin_pass() { passes_.emplace_back(); }

  /// Records a span and returns its id, to be passed as a child's parent.
  int span(const std::string& name, Clock::time_point start,
           Clock::time_point end, int parent = -1);
  void count(const std::string& name, double value) {
    passes_.back()[name] += value;
  }
  void maximum(const std::string& name, double value);

  const std::vector<Totals>& passes() const { return passes_; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto); false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    std::size_t pass;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Totals> passes_;
};

/// Host-speed probe. The benchmark's host is shared, and other tenants'
/// load moves the speed of identical code by a factor of up to four within
/// a second and by a quarter over a minute: more than any bound worth
/// setting. The probe is a fixed register-only loop in the benchmark's own
/// code (no memory traffic, so the simulator's cache footprint cannot
/// reach it), timed before and after every pass. End-to-end times are
/// scaled by kNominalMs over the mean of the two readings, so they read as
/// if the host ran the probe in exactly kNominalMs. A change to the
/// simulator moves scaled and raw times alike; a change in host speed
/// moves probe and pass together and largely cancels.
class HostProbe {
 public:
  /// The probe's time on the reference host when quiet (see README.md).
  static constexpr double kNominalMs = 5.0;

  /// Runs the loop once; returns its wall time in ms.
  double measure_ms();

 private:
  std::uint64_t state_ = 1;
};

double median(std::vector<double> values);

/// The tail of `values` (in measurement order): the p90 (nearest rank) of
/// each consecutive chunk of 100 samples, and the median of those over the
/// chunks. The chunk size is fixed, so the same percentile is compared
/// whatever the number of runs that fit in a measurement; one extreme
/// percentile of all samples would rest on the few slowest runs alone,
/// which a single burst of host load decides. Samples after the last whole
/// chunk are left out; with fewer than 100 samples, the p90 of all.
struct Tail {
  static constexpr std::size_t kChunk = 100;
  double value = 0;
  std::size_t chunk = 0;  ///< Samples per chunk.
  std::size_t chunks = 0;
};
Tail tail_of(const std::vector<double>& values);

/// Stores `value` where the compiler cannot drop it, so the work that
/// produced it is never optimised away.
void keep(std::size_t value);

/// Peak resident set of this process, in MiB.
double peak_rss_mib();

/// "nproc=4 clmul=yes build=Release compiler=gcc-12.2.0".
std::string machine_fingerprint();

}  // namespace perfbench
