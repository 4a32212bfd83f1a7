// Tests for orchestrator/results_io: write_results must put the exact bytes
// of every artifact on disk, derived field by field from the in-memory
// TestResult, including the empty-flows and unfinished-run edge cases, and
// a write that fails (the final flush included) must name the artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "config/test_config.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/results_io.h"
#include "util/file_io.h"

namespace lumina {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("lumina_results_io_" + tag + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

std::string artifact(const std::string& dir, const std::string& name) {
  const auto bytes = read_file(dir + "/" + name);
  EXPECT_TRUE(bytes.has_value()) << name;
  return bytes.value_or("");
}

std::uint32_t u32le(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(bytes[at + i]);
  }
  return v;
}

std::string counters_text(const RnicCounters& counters) {
  std::string out;
  for (const auto& [name, value] : counters.entries()) {
    out += name + " " + std::to_string(value) + "\n";
  }
  return out;
}

constexpr const char* kFlowsHeader =
    "connection,msg_index,posted_at_ns,completed_at_ns,completion_time_us,"
    "status\n";

/// Checks every artifact's bytes against the TestResult it was written
/// from: the pcap record by record, the counter files and integrity line
/// exactly, and one flows.csv row per message.
void expect_artifacts_match(const TestResult& result, const std::string& dir) {
  // trace.pcap: nanosecond magic, then per packet its timestamp, captured
  // and on-wire lengths, and exact bytes.
  const std::string pcap = artifact(dir, "trace.pcap");
  ASSERT_GE(pcap.size(), 24u);
  EXPECT_EQ(u32le(pcap, 0), 0xa1b23c4du);
  std::size_t at = 24;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const TracePacket& expect = result.trace[i];
    ASSERT_LE(at + 16 + expect.pkt.size(), pcap.size()) << "packet " << i;
    EXPECT_EQ(u32le(pcap, at), expect.time() / kSecond) << "packet " << i;
    EXPECT_EQ(u32le(pcap, at + 4), expect.time() % kSecond) << "packet " << i;
    EXPECT_EQ(u32le(pcap, at + 8), expect.pkt.size()) << "packet " << i;
    EXPECT_EQ(u32le(pcap, at + 12),
              expect.orig_len == 0 ? expect.pkt.size() : expect.orig_len)
        << "packet " << i;
    EXPECT_EQ(pcap.substr(at + 16, expect.pkt.size()),
              std::string(expect.pkt.bytes.begin(), expect.pkt.bytes.end()))
        << "packet " << i;
    at += 16 + expect.pkt.size();
  }
  EXPECT_EQ(at, pcap.size());

  EXPECT_EQ(artifact(dir, "integrity.txt"),
            result.integrity.to_string() + "\n");
  EXPECT_EQ(artifact(dir, "requester_counters.txt"),
            counters_text(result.requester_counters()));
  EXPECT_EQ(artifact(dir, "responder_counters.txt"),
            counters_text(result.responder_counters()));
  const SwitchRoceCounters& sw = result.switch_counters;
  EXPECT_EQ(artifact(dir, "switch_counters.txt"),
            "roce_rx " + std::to_string(sw.roce_rx) + "\nroce_tx " +
                std::to_string(sw.roce_tx) + "\nmirrored " +
                std::to_string(sw.mirrored) + "\nevents_applied " +
                std::to_string(sw.events_applied) + "\ndropped_by_event " +
                std::to_string(sw.dropped_by_event) + "\n");

  // flows.csv: the header, then one row per message in (connection,
  // message) order, each starting with its identity and times.
  const std::string flows = artifact(dir, "flows.csv");
  ASSERT_EQ(flows.rfind(kFlowsHeader, 0), 0u);
  std::size_t row_start = std::string(kFlowsHeader).size();
  for (std::size_t c = 0; c < result.flows.size(); ++c) {
    for (const auto& msg : result.flows[c].messages) {
      const std::size_t row_end = flows.find('\n', row_start);
      ASSERT_NE(row_end, std::string::npos);
      const std::string row = flows.substr(row_start, row_end - row_start);
      const std::string prefix =
          std::to_string(c) + "," + std::to_string(msg.msg_index) + "," +
          std::to_string(msg.posted_at) + "," +
          std::to_string(msg.completed_at) + ",";
      EXPECT_EQ(row.rfind(prefix, 0), 0u) << row;
      row_start = row_end + 1;
    }
  }
  EXPECT_EQ(row_start, flows.size());

  std::size_t connection_lines = 0;
  for (const char ch : artifact(dir, "connections.txt")) {
    connection_lines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(connection_lines, result.connections.size());
}

TEST(ResultsIo, RoundTripsFullExperiment) {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx6Dx;
  cfg.responder().nic_type = NicType::kCx6Dx;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 3;
  cfg.traffic.message_size = 4096;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 2, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  const TestResult result = orch.run();
  ASSERT_GT(result.trace.size(), 0u);

  const std::string dir = temp_dir("full");
  std::string failed;
  ASSERT_TRUE(write_results(result, dir, &failed)) << failed;
  expect_artifacts_match(result, dir);
  fs::remove_all(dir);
}

TEST(ResultsIo, RoundTripsEmptyFlows) {
  // A synthetic result with no flows, no connections, and no packets —
  // the files must still be written: a header-only pcap and flows.csv,
  // zeroed counter files and an empty connections.txt.
  TestResult result;
  result.integrity.trace_packets = 0;

  const std::string dir = temp_dir("empty");
  std::string failed;
  ASSERT_TRUE(write_results(result, dir, &failed)) << failed;
  EXPECT_EQ(artifact(dir, "trace.pcap").size(), 24u);
  EXPECT_EQ(artifact(dir, "flows.csv"), kFlowsHeader);
  EXPECT_EQ(artifact(dir, "connections.txt"), "");
  EXPECT_EQ(artifact(dir, "integrity.txt"),
            result.integrity.to_string() + "\n");
  EXPECT_EQ(artifact(dir, "requester_counters.txt"),
            counters_text(RnicCounters{}));
  fs::remove_all(dir);
}

TEST(ResultsIo, RoundTripsUnfinishedRun) {
  // An unfinished run: one message still in flight (completed_at < 0).
  TestResult result;
  result.finished = false;
  FlowMetrics flow;
  flow.message_size = 1024;
  MessageRecord done;
  done.msg_index = 0;
  done.posted_at = 100;
  done.completed_at = 2100;
  MessageRecord pending;
  pending.msg_index = 1;
  pending.posted_at = 2200;
  pending.completed_at = -1;
  flow.messages = {done, pending};
  result.flows.push_back(flow);

  const std::string dir = temp_dir("unfinished");
  std::string failed;
  ASSERT_TRUE(write_results(result, dir, &failed)) << failed;
  expect_artifacts_match(result, dir);
  EXPECT_EQ(artifact(dir, "flows.csv"),
            std::string(kFlowsHeader) +
                "0,0,100,2100,2.000,success\n"
                "0,1,2200,-1,-1.000,in-flight\n");
  fs::remove_all(dir);
}

TEST(ResultsIo, WriteFailureNamesThePath) {
  TestResult result;
  std::string failed;
  EXPECT_FALSE(
      write_results(result, "/proc/definitely/not/writable", &failed));
  EXPECT_FALSE(failed.empty());
  EXPECT_NE(failed.find("/proc/definitely/not/writable"), std::string::npos);
}

TEST(ResultsIo, WriteToAFullDeviceNamesTheArtifact) {
  // Each artifact here is smaller than a stdio buffer, so its only write
  // happens at close: the flush that fails there must fail the call.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  TestConfig cfg;
  cfg.traffic.num_msgs_per_qp = 1;
  cfg.traffic.message_size = 1024;
  const TestResult result = Orchestrator(cfg).run();
  for (const std::string name :
       {"trace.pcap", "requester_counters.txt", "flows.csv"}) {
    const std::string dir = temp_dir("devfull");
    fs::create_directories(dir);
    fs::create_symlink("/dev/full", dir + "/" + name);
    std::string failed;
    EXPECT_FALSE(write_results(result, dir, &failed)) << name;
    EXPECT_EQ(failed, dir + "/" + name);
    fs::remove_all(dir);  // removes the link, not the device
  }
}

}  // namespace
}  // namespace lumina
