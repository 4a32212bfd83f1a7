#include "orchestrator/results_io.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>

#include "packet/pcap_writer.h"
#include "telemetry/report.h"
#include "util/file_io.h"

namespace lumina {
namespace {

/// printf onto the end of `out`.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  const std::size_t old_size = out.size();
  out.resize(old_size + static_cast<std::size_t>(n) + 1);
  std::vsnprintf(out.data() + old_size, static_cast<std::size_t>(n) + 1, fmt,
                 args);
  out.resize(old_size + static_cast<std::size_t>(n));
  va_end(args);
}

/// Counter artifact of host `index`. Hosts 0/1 keep the historical
/// requester/responder filenames (golden directories stay byte-identical);
/// later hosts get host<i>_counters.txt.
std::string host_counters_filename(std::size_t index) {
  if (index == 0) return "requester_counters.txt";
  if (index == 1) return "responder_counters.txt";
  return "host" + std::to_string(index) + "_counters.txt";
}

std::string trace_pcap(const TestResult& result) {
  std::string out = pcap_file_header();
  for (const auto& p : result.trace) {
    append_pcap_record(out, p.pkt.bytes, p.time(), p.orig_len);
  }
  return out;
}

std::string counters_text(const RnicCounters& counters) {
  std::string out;
  for (const auto& [name, value] : counters.entries()) {
    appendf(out, "%s %llu\n", name.c_str(),
            static_cast<unsigned long long>(value));
  }
  return out;
}

std::string switch_counters_text(const SwitchRoceCounters& counters) {
  std::string out;
  appendf(out, "roce_rx %llu\n",
          static_cast<unsigned long long>(counters.roce_rx));
  appendf(out, "roce_tx %llu\n",
          static_cast<unsigned long long>(counters.roce_tx));
  appendf(out, "mirrored %llu\n",
          static_cast<unsigned long long>(counters.mirrored));
  appendf(out, "events_applied %llu\n",
          static_cast<unsigned long long>(counters.events_applied));
  appendf(out, "dropped_by_event %llu\n",
          static_cast<unsigned long long>(counters.dropped_by_event));
  return out;
}

std::string flows_csv(const TestResult& result) {
  std::string out =
      "connection,msg_index,posted_at_ns,completed_at_ns,"
      "completion_time_us,status\n";
  for (std::size_t c = 0; c < result.flows.size(); ++c) {
    for (const auto& msg : result.flows[c].messages) {
      const char* status = msg.completed_at < 0 ? "in-flight"
                           : msg.status == WcStatus::kSuccess
                               ? "success"
                           : msg.status == WcStatus::kRetryExceeded
                               ? "retry-exceeded"
                           : msg.status == WcStatus::kRnrRetryExceeded
                               ? "rnr-retry-exceeded"
                               : "flushed";
      appendf(out, "%zu,%d,%lld,%lld,%.3f,%s\n", c, msg.msg_index,
              static_cast<long long>(msg.posted_at),
              static_cast<long long>(msg.completed_at),
              msg.completed_at < 0 ? -1.0 : to_us(msg.completion_time()),
              status);
    }
  }
  return out;
}

std::string connections_text(const TestResult& result) {
  std::string out;
  for (std::size_t i = 0; i < result.connections.size(); ++i) {
    const auto& meta = result.connections[i];
    appendf(out,
            "conn %zu requester ip=%s qpn=0x%x ipsn=%u | "
            "responder ip=%s qpn=0x%x ipsn=%u",
            i + 1, meta.requester.ip.to_string().c_str(), meta.requester.qpn,
            meta.requester.ipsn, meta.responder.ip.to_string().c_str(),
            meta.responder.qpn, meta.responder.ipsn);
    // Host endpoints are spelled out only beyond the classic 0->1 pair, so
    // two-host artifacts stay byte-identical to pre-topology goldens.
    if (meta.src_host != 0 || meta.dst_host != 1) {
      appendf(out, " | hosts %d->%d", meta.src_host, meta.dst_host);
    }
    out += "\n";
  }
  return out;
}

}  // namespace

bool write_results(const TestResult& result, const std::string& dir,
                   std::string* failed_path) {
  const auto fail = [failed_path](const std::string& path) {
    if (failed_path != nullptr) *failed_path = path;
    return false;
  };
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return fail(dir);
  const auto put = [&](const std::string& name, const std::string& bytes) {
    const std::string path = dir + "/" + name;
    return write_file(path, bytes) || fail(path);
  };

  if (!put("trace.pcap", trace_pcap(result)) ||
      !put("integrity.txt", result.integrity.to_string() + "\n")) {
    return false;
  }
  // Always at least the classic pair of counter files (zeroed when the
  // result carries no hosts), so every directory has the same layout.
  const std::size_t num_hosts = std::max<std::size_t>(
      2, result.host_counters.size());
  for (std::size_t h = 0; h < num_hosts; ++h) {
    const RnicCounters counters = h < result.host_counters.size()
                                      ? result.host_counters[h]
                                      : RnicCounters{};
    if (!put(host_counters_filename(h), counters_text(counters))) {
      return false;
    }
  }

  // report.json: per-run reports carry no wall data, so the whole file is
  // byte-stable across jobs/hosts.
  telemetry::RunReport report;
  report.name = std::filesystem::path(dir).filename().string();
  report.deterministic = result.telemetry;
  return put("switch_counters.txt",
             switch_counters_text(result.switch_counters)) &&
         put("flows.csv", flows_csv(result)) &&
         put("connections.txt", connections_text(result)) &&
         put("report.json", telemetry::serialize_report(report));
}

}  // namespace lumina
