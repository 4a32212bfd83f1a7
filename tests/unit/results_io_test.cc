// Round-trip tests for orchestrator/results_io: write_results followed by
// read_results must reproduce every artifact field-by-field from the
// in-memory TestResult, including the empty-flows and unfinished-run edge
// cases, and failures must name the artifact that could not be written.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "config/test_config.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/results_io.h"

namespace lumina {
namespace {

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lumina_results_io_" + tag + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

const char* status_label(const MessageRecord& msg) {
  return msg.completed_at < 0 ? "in-flight"
         : msg.status == WcStatus::kSuccess ? "success"
         : msg.status == WcStatus::kRetryExceeded ? "retry-exceeded"
         : msg.status == WcStatus::kRnrRetryExceeded ? "rnr-retry-exceeded"
                                                     : "flushed";
}

/// Field-by-field comparison of a parsed results directory against the
/// in-memory TestResult it was written from.
void expect_round_trip(const TestResult& result, const ReadResults& read) {
  // trace.pcap: packet count, nanosecond timestamps, exact bytes.
  ASSERT_EQ(read.trace.size(), result.trace.size());
  for (std::size_t i = 0; i < read.trace.size(); ++i) {
    const TracePacket& expect = result.trace[i];
    EXPECT_EQ(read.trace[i].timestamp, expect.time()) << "packet " << i;
    const std::size_t orig =
        expect.orig_len == 0 ? expect.pkt.size() : expect.orig_len;
    EXPECT_EQ(read.trace[i].orig_len, orig) << "packet " << i;
    EXPECT_TRUE(std::ranges::equal(read.trace[i].bytes, expect.pkt.bytes))
        << "packet " << i;
  }

  EXPECT_EQ(read.integrity, result.integrity.to_string());

  // NIC counters: every entry present with the exact value.
  for (const auto& [name, value] : result.requester_counters().entries()) {
    ASSERT_TRUE(read.requester_counters.count(name)) << name;
    EXPECT_EQ(read.requester_counters.at(name), value) << name;
  }
  for (const auto& [name, value] : result.responder_counters().entries()) {
    ASSERT_TRUE(read.responder_counters.count(name)) << name;
    EXPECT_EQ(read.responder_counters.at(name), value) << name;
  }
  EXPECT_EQ(read.switch_counters.at("roce_rx"),
            result.switch_counters.roce_rx);
  EXPECT_EQ(read.switch_counters.at("roce_tx"),
            result.switch_counters.roce_tx);
  EXPECT_EQ(read.switch_counters.at("mirrored"),
            result.switch_counters.mirrored);
  EXPECT_EQ(read.switch_counters.at("events_applied"),
            result.switch_counters.events_applied);
  EXPECT_EQ(read.switch_counters.at("dropped_by_event"),
            result.switch_counters.dropped_by_event);

  // flows.csv: one row per message, in (connection, message) order.
  std::size_t rows = 0;
  for (const auto& flow : result.flows) rows += flow.messages.size();
  ASSERT_EQ(read.flows.size(), rows);
  std::size_t row = 0;
  for (std::size_t c = 0; c < result.flows.size(); ++c) {
    for (const auto& msg : result.flows[c].messages) {
      const ReadFlowRow& parsed = read.flows[row++];
      EXPECT_EQ(parsed.connection, c);
      EXPECT_EQ(parsed.msg_index, msg.msg_index);
      EXPECT_EQ(parsed.posted_at, msg.posted_at);
      EXPECT_EQ(parsed.completed_at, msg.completed_at);
      EXPECT_EQ(parsed.status, status_label(msg));
      if (msg.completed_at < 0) {
        EXPECT_DOUBLE_EQ(parsed.completion_time_us, -1.0);
      } else {
        EXPECT_NEAR(parsed.completion_time_us, to_us(msg.completion_time()),
                    1e-3);
      }
    }
  }

  ASSERT_EQ(read.connections.size(), result.connections.size());
}

TestResult run_small_experiment() {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx6Dx;
  cfg.responder().nic_type = NicType::kCx6Dx;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 3;
  cfg.traffic.message_size = 4096;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 2, EventType::kDrop, 1});
  Orchestrator orch(cfg);
  return orch.run();
}

TEST(ResultsIo, RoundTripsFullExperiment) {
  const TestResult result = run_small_experiment();
  ASSERT_GT(result.trace.size(), 0u);

  const std::string dir = temp_dir("full");
  std::string failed;
  ASSERT_TRUE(write_results(result, dir, &failed)) << failed;

  ReadResults read;
  ASSERT_TRUE(read_results(dir, &read, &failed)) << failed;
  expect_round_trip(result, read);
  std::filesystem::remove_all(dir);
}

TEST(ResultsIo, RoundTripsEmptyFlows) {
  // A synthetic result with no flows, no connections, and no packets —
  // the files must still be written and read back as empty tables.
  TestResult result;
  result.integrity.trace_packets = 0;

  const std::string dir = temp_dir("empty");
  std::string failed;
  ASSERT_TRUE(write_results(result, dir, &failed)) << failed;

  ReadResults read;
  ASSERT_TRUE(read_results(dir, &read, &failed)) << failed;
  EXPECT_TRUE(read.trace.empty());
  EXPECT_TRUE(read.flows.empty());
  EXPECT_TRUE(read.connections.empty());
  EXPECT_EQ(read.integrity, result.integrity.to_string());
  std::filesystem::remove_all(dir);
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

  ReadResults read;
  ASSERT_TRUE(read_results(dir, &read, &failed)) << failed;
  expect_round_trip(result, read);
  ASSERT_EQ(read.flows.size(), 2u);
  EXPECT_EQ(read.flows[1].status, "in-flight");
  EXPECT_EQ(read.flows[1].completed_at, -1);
  EXPECT_DOUBLE_EQ(read.flows[1].completion_time_us, -1.0);
  std::filesystem::remove_all(dir);
}

TEST(ResultsIo, WriteFailureNamesThePath) {
  TestResult result;
  std::string failed;
  EXPECT_FALSE(
      write_results(result, "/proc/definitely/not/writable", &failed));
  EXPECT_FALSE(failed.empty());
  EXPECT_NE(failed.find("/proc/definitely/not/writable"), std::string::npos);
}

TEST(ResultsIo, ReadFailureNamesTheMissingArtifact) {
  const std::string dir = temp_dir("missing");
  std::filesystem::create_directories(dir);
  ReadResults read;
  std::string failed;
  EXPECT_FALSE(read_results(dir, &read, &failed));
  EXPECT_EQ(failed, dir + "/trace.pcap");
  std::filesystem::remove_all(dir);
}

TEST(ResultsIo, ReadRejectsCorruptPcap) {
  const TestResult result = run_small_experiment();
  const std::string dir = temp_dir("corrupt");
  ASSERT_TRUE(write_results(result, dir));

  // Truncate the pcap mid-record: read_results must flag it.
  const std::string pcap = dir + "/trace.pcap";
  const auto full = std::filesystem::file_size(pcap);
  std::filesystem::resize_file(pcap, full - 7);
  ReadResults read;
  std::string failed;
  EXPECT_FALSE(read_results(dir, &read, &failed));
  EXPECT_EQ(failed, pcap);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lumina
