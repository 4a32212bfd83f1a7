#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "orchestrator/orchestrator.h"
#include "packet/icrc.h"

namespace perfbench {

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
  }
}

std::uint64_t digest_result(const lumina::TestResult& result) {
  Digest d;
  d.u64(result.finished);
  d.u64(static_cast<std::uint64_t>(result.duration));
  d.text(result.integrity.to_string());
  d.u64(result.trace.size());
  for (const auto& tp : result.trace) {
    d.text(std::string_view(reinterpret_cast<const char*>(tp.pkt.bytes.data()),
                            tp.pkt.bytes.size()));
    d.u64(tp.meta.mirror_seq);
    d.u64(static_cast<std::uint64_t>(tp.meta.ingress_timestamp));
    d.u64(static_cast<std::uint64_t>(tp.meta.event));
    d.u64(tp.orig_len);
    d.u64(static_cast<std::uint64_t>(tp.released_at));
  }
  for (const auto& counters : result.host_counters) {
    for (const auto& [name, value] : counters.entries()) {
      d.text(name);
      d.u64(value);
    }
  }
  const auto& sw = result.switch_counters;
  for (const std::uint64_t v : {sw.roce_rx, sw.roce_tx, sw.mirrored,
                                sw.events_applied, sw.dropped_by_event,
                                sw.ecn_marked_by_queue}) {
    d.u64(v);
  }
  for (const auto& flow : result.flows) {
    d.u64(flow.aborted);
    for (const auto& m : flow.messages) {
      d.u64(static_cast<std::uint64_t>(m.posted_at));
      d.u64(static_cast<std::uint64_t>(m.completed_at));
      d.u64(static_cast<std::uint64_t>(m.status));
    }
  }
  const auto kernel_shape = [](const std::string& name) {
    return name.rfind("sim.", 0) == 0;
  };
  const auto& snap = result.telemetry;
  for (const auto& [name, value] : snap.counters) {
    if (kernel_shape(name)) continue;
    d.text(name);
    d.u64(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    if (kernel_shape(name)) continue;
    d.text(name);
    d.u64(static_cast<std::uint64_t>(value));
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (kernel_shape(name)) continue;
    d.text(name);
    d.u64(hist.count);
    d.u64(static_cast<std::uint64_t>(hist.sum));
    d.u64(static_cast<std::uint64_t>(hist.min));
    d.u64(static_cast<std::uint64_t>(hist.max));
    for (const std::uint64_t c : hist.counts) d.u64(c);
  }
  return d.value();
}

int Tracer::span(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent) {
  spans_.push_back(Span{name, parent, passes_.size() - 1, start, end});
  passes_.back()[name] += ms_between(start, end);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::maximum(const std::string& name, double value) {
  double& slot = passes_.back()[name];
  slot = std::max(slot, value);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"pass\": %zu}}%s\n",
                  s.name.c_str(), ms_between(origin_, s.start) * 1e3,
                  ms_between(s.start, s.end) * 1e3, i, s.parent, s.pass,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double HostProbe::measure_ms() {
  SeedStream stream(state_);
  std::uint64_t sum = 0;
  const auto start = Clock::now();
  for (int i = 0; i < 4000000; ++i) sum += stream.next();
  const double ms = ms_between(start, Clock::now());
  state_ = sum;  // the result stays live, so the loop is not elided
  return ms;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  const std::size_t n = values.size();
  if (n == 0) return tail;
  // Whole chunks only; with fewer than one, all values form the one chunk.
  tail.chunk = n < Tail::kChunk ? n : Tail::kChunk;
  tail.chunks = n / tail.chunk;
  // Nearest rank: the smallest value with at least 90% of the chunk at or
  // below it (rank 90 of 100, leaving 10 samples beyond).
  const std::size_t rank = (tail.chunk * 9 + 9) / 10;
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < tail.chunks; ++c) {
    std::vector<double> chunk(values.begin() + c * tail.chunk,
                              values.begin() + (c + 1) * tail.chunk);
    std::nth_element(chunk.begin(), chunk.begin() + (rank - 1), chunk.end());
    per_chunk.push_back(chunk[rank - 1]);
  }
  tail.value = median(std::move(per_chunk));
  return tail;
}

namespace {
volatile std::size_t kept_value = 0;
}  // namespace

void keep(std::size_t value) { kept_value = value; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string machine_fingerprint() {
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " clmul=" + (lumina::crc32_clmul_supported() ? "yes" : "no") +
         " build=" + PERFBENCH_BUILD_TYPE +
#if defined(__clang__)
         " compiler=clang-" + __clang_version__;
#elif defined(__GNUC__)
         " compiler=gcc-" + __VERSION__;
#else
         " compiler=unknown";
#endif
}

}  // namespace perfbench
