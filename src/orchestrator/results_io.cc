#include "orchestrator/results_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "packet/pcap_writer.h"
#include "telemetry/json_lite.h"
#include "telemetry/report.h"

namespace lumina {
namespace {

/// Counter artifact of host `index`. Hosts 0/1 keep the historical
/// requester/responder filenames (golden directories stay byte-identical);
/// later hosts get host<i>_counters.txt.
std::string host_counters_filename(std::size_t index) {
  if (index == 0) return "requester_counters.txt";
  if (index == 1) return "responder_counters.txt";
  return "host" + std::to_string(index) + "_counters.txt";
}

bool write_counters(const RnicCounters& counters, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [name, value] : counters.entries()) {
    std::fprintf(f, "%s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  std::fclose(f);
  return true;
}

bool write_switch_counters(const SwitchRoceCounters& counters,
                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "roce_rx %llu\n",
               static_cast<unsigned long long>(counters.roce_rx));
  std::fprintf(f, "roce_tx %llu\n",
               static_cast<unsigned long long>(counters.roce_tx));
  std::fprintf(f, "mirrored %llu\n",
               static_cast<unsigned long long>(counters.mirrored));
  std::fprintf(f, "events_applied %llu\n",
               static_cast<unsigned long long>(counters.events_applied));
  std::fprintf(f, "dropped_by_event %llu\n",
               static_cast<unsigned long long>(counters.dropped_by_event));
  std::fclose(f);
  return true;
}

bool write_flows_csv(const TestResult& result, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "connection,msg_index,posted_at_ns,completed_at_ns,"
               "completion_time_us,status\n");
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
      std::fprintf(f, "%zu,%d,%lld,%lld,%.3f,%s\n", c, msg.msg_index,
                   static_cast<long long>(msg.posted_at),
                   static_cast<long long>(msg.completed_at),
                   msg.completed_at < 0 ? -1.0 : to_us(msg.completion_time()),
                   status);
    }
  }
  std::fclose(f);
  return true;
}

bool write_connections(const TestResult& result, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < result.connections.size(); ++i) {
    const auto& meta = result.connections[i];
    std::fprintf(f,
                 "conn %zu requester ip=%s qpn=0x%x ipsn=%u | "
                 "responder ip=%s qpn=0x%x ipsn=%u",
                 i + 1, meta.requester.ip.to_string().c_str(),
                 meta.requester.qpn, meta.requester.ipsn,
                 meta.responder.ip.to_string().c_str(), meta.responder.qpn,
                 meta.responder.ipsn);
    // Host endpoints are spelled out only beyond the classic 0->1 pair, so
    // two-host artifacts stay byte-identical to pre-topology goldens.
    if (meta.src_host != 0 || meta.dst_host != 1) {
      std::fprintf(f, " | hosts %d->%d", meta.src_host, meta.dst_host);
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return true;
}

/// Records `path` into `failed_path` (when requested) and returns false —
/// the single exit ramp for every write/read failure below.
bool fail(const std::string& path, std::string* failed_path) {
  if (failed_path != nullptr) *failed_path = path;
  return false;
}

// -- read-back ------------------------------------------------------------

bool read_counter_file(const std::string& path,
                       std::map<std::string, std::uint64_t>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string name;
  unsigned long long value = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    if (!(fields >> name >> value)) return false;
    (*out)[name] = value;
  }
  return true;
}

bool read_integrity(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  return static_cast<bool>(std::getline(in, *out));
}

bool read_flows_csv(const std::string& path, std::vector<ReadFlowRow>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ReadFlowRow row;
    char status[64] = {0};
    unsigned long long conn = 0;
    long long posted = 0, completed = 0;
    if (std::sscanf(line.c_str(), "%llu,%d,%lld,%lld,%lf,%63s", &conn,
                    &row.msg_index, &posted, &completed,
                    &row.completion_time_us, status) != 6) {
      return false;
    }
    row.connection = conn;
    row.posted_at = posted;
    row.completed_at = completed;
    row.status = status;
    out->push_back(std::move(row));
  }
  return true;
}

bool read_lines(const std::string& path, std::vector<std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) out->push_back(line);
  return true;
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

bool read_pcap(const std::string& path, std::vector<ReadTracePacket>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint8_t header[24];
  if (!in.read(reinterpret_cast<char*>(header), sizeof(header))) return false;
  if (get_u32le(&header[0]) != 0xa1b23c4d) return false;  // ns pcap magic
  for (;;) {
    std::uint8_t rec[16];
    if (!in.read(reinterpret_cast<char*>(rec), sizeof(rec))) {
      return in.eof() && in.gcount() == 0;  // clean end between records
    }
    ReadTracePacket pkt;
    pkt.timestamp = static_cast<Tick>(get_u32le(&rec[0])) * kSecond +
                    static_cast<Tick>(get_u32le(&rec[4]));
    const std::uint32_t incl_len = get_u32le(&rec[8]);
    pkt.orig_len = get_u32le(&rec[12]);
    pkt.bytes.resize(incl_len);
    if (incl_len > 0 &&
        !in.read(reinterpret_cast<char*>(pkt.bytes.data()), incl_len)) {
      return false;  // truncated record
    }
    out->push_back(std::move(pkt));
  }
}

}  // namespace

bool write_results(const TestResult& result, const std::string& dir,
                   std::string* failed_path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return fail(dir, failed_path);

  const std::string trace_path = dir + "/trace.pcap";
  PcapWriter pcap;
  if (!pcap.open(trace_path)) return fail(trace_path, failed_path);
  for (const auto& p : result.trace) {
    if (!pcap.write(p.pkt.bytes, p.time(), p.orig_len)) {
      return fail(trace_path, failed_path);
    }
  }
  pcap.close();

  const std::string integrity_path = dir + "/integrity.txt";
  std::FILE* f = std::fopen(integrity_path.c_str(), "w");
  if (f == nullptr) return fail(integrity_path, failed_path);
  std::fprintf(f, "%s\n", result.integrity.to_string().c_str());
  std::fclose(f);

  // Always at least the classic pair of counter files (zeroed when the
  // result carries no hosts), so every directory reads back uniformly.
  const std::size_t num_hosts = std::max<std::size_t>(
      2, result.host_counters.size());
  for (std::size_t h = 0; h < num_hosts; ++h) {
    const std::string path = dir + "/" + host_counters_filename(h);
    const RnicCounters counters = h < result.host_counters.size()
                                      ? result.host_counters[h]
                                      : RnicCounters{};
    if (!write_counters(counters, path)) return fail(path, failed_path);
  }
  if (!write_switch_counters(result.switch_counters,
                             dir + "/switch_counters.txt")) {
    return fail(dir + "/switch_counters.txt", failed_path);
  }
  if (!write_flows_csv(result, dir + "/flows.csv")) {
    return fail(dir + "/flows.csv", failed_path);
  }
  if (!write_connections(result, dir + "/connections.txt")) {
    return fail(dir + "/connections.txt", failed_path);
  }

  // report.json: per-run reports carry no wall data, so the whole file —
  // not just the deterministic section — is byte-stable across jobs/hosts.
  telemetry::RunReport report;
  report.name = std::filesystem::path(dir).filename().string();
  report.deterministic = result.telemetry;
  if (!telemetry::write_report(report, dir + "/report.json", failed_path)) {
    return false;
  }
  return true;
}

bool read_results(const std::string& dir, ReadResults* out,
                  std::string* failed_path) {
  if (!read_pcap(dir + "/trace.pcap", &out->trace)) {
    return fail(dir + "/trace.pcap", failed_path);
  }
  if (!read_integrity(dir + "/integrity.txt", &out->integrity)) {
    return fail(dir + "/integrity.txt", failed_path);
  }
  if (!read_counter_file(dir + "/requester_counters.txt",
                         &out->requester_counters)) {
    return fail(dir + "/requester_counters.txt", failed_path);
  }
  if (!read_counter_file(dir + "/responder_counters.txt",
                         &out->responder_counters)) {
    return fail(dir + "/responder_counters.txt", failed_path);
  }
  out->host_counters = {out->requester_counters, out->responder_counters};
  // Hosts beyond the classic pair (host2_counters.txt, ...): read until
  // the next index is absent.
  for (std::size_t h = 2;; ++h) {
    const std::string path = dir + "/" + host_counters_filename(h);
    if (!std::filesystem::exists(path)) break;
    std::map<std::string, std::uint64_t> counters;
    if (!read_counter_file(path, &counters)) return fail(path, failed_path);
    out->host_counters.push_back(std::move(counters));
  }
  if (!read_counter_file(dir + "/switch_counters.txt",
                         &out->switch_counters)) {
    return fail(dir + "/switch_counters.txt", failed_path);
  }
  if (!read_flows_csv(dir + "/flows.csv", &out->flows)) {
    return fail(dir + "/flows.csv", failed_path);
  }
  if (!read_lines(dir + "/connections.txt", &out->connections)) {
    return fail(dir + "/connections.txt", failed_path);
  }
  // report.json is optional on read: directories written before the
  // telemetry layer existed stay loadable, but a present-and-malformed
  // report is an error like any other artifact.
  const std::string report_path = dir + "/report.json";
  if (std::filesystem::exists(report_path)) {
    try {
      out->report = telemetry::read_report_file(report_path);
    } catch (const telemetry::JsonError&) {
      return fail(report_path, failed_path);
    }
  }
  return true;
}

}  // namespace lumina
