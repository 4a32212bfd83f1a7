// Tests for the per-thread stash of spare vector capacity
// (util/spare_vectors.h): its bounds, capacity reuse across two runs on one
// thread with the trace unchanged, and its lifetime rule, with a trace
// destroyed on a thread other than its own and a trace that outlives its
// thread's stash.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "orchestrator/orchestrator.h"
#include "util/spare_vectors.h"

namespace lumina {
namespace {

/// Element types of their own, so no other code shares these stashes.
struct Small {
  std::uint64_t value = 0;
};
struct Wide {
  std::uint8_t bytes[64] = {};
};

/// Empties this thread's stash of T, so the test sees only what it gives.
template <typename T>
void drain() {
  while (SpareVectors<T>::take().capacity() > 0) {
  }
}

std::vector<Small> with_capacity(std::size_t capacity) {
  std::vector<Small> v;
  v.reserve(capacity);
  v.resize(capacity / 2);  // the elements must not survive give()
  return v;
}

TestConfig small_config() {
  TestConfig cfg;
  cfg.requester().nic_type = NicType::kCx5;
  cfg.responder().nic_type = NicType::kCx5;
  cfg.traffic.num_connections = 2;
  cfg.traffic.num_msgs_per_qp = 2;
  cfg.traffic.message_size = 4096;
  cfg.traffic.data_pkt_events.push_back(
      DataPacketEvent{1, 3, EventType::kDrop, 1});
  return cfg;
}

/// A trace record with its bytes copied out, so it outlives the trace.
struct Frame {
  std::vector<std::uint8_t> bytes;
  std::uint64_t mirror_seq = 0;
  Tick ingress_timestamp = 0;
  EventType event = EventType::kNone;
  std::size_t orig_len = 0;
  RoceView view;

  bool operator==(const Frame&) const = default;
};

std::vector<Frame> frames_of(const PacketTrace& trace) {
  std::vector<Frame> out;
  for (const TracePacket& tp : trace) {
    out.push_back(Frame{{tp.pkt.bytes.begin(), tp.pkt.bytes.end()},
                        tp.meta.mirror_seq, tp.meta.ingress_timestamp,
                        tp.meta.event, tp.orig_len, tp.view});
  }
  return out;
}

TEST(SpareVectors, TakeHandsOutTheLargestAndKeepsAtMostEight) {
  static_assert(SpareVectors<Small>::kMaxKept == 8);
  drain<Small>();
  EXPECT_EQ(SpareVectors<Small>::take().capacity(), 0u);
  for (const std::size_t capacity : {30, 10, 50, 20, 80, 40, 70, 60}) {
    SpareVectors<Small>::give(with_capacity(capacity));
  }
  // Full: a larger vector replaces the smallest (10); a smaller one is
  // freed, and so is a vector without capacity.
  SpareVectors<Small>::give(with_capacity(90));
  SpareVectors<Small>::give(with_capacity(5));
  SpareVectors<Small>::give({});
  for (const std::size_t capacity : {90, 80, 70, 60, 50, 40, 30, 20}) {
    const std::vector<Small> v = SpareVectors<Small>::take();
    EXPECT_EQ(v.capacity(), capacity);
    EXPECT_TRUE(v.empty());
  }
  EXPECT_EQ(SpareVectors<Small>::take().capacity(), 0u);
}

TEST(SpareVectors, FreesAVectorAboveTheCap) {
  constexpr std::size_t kCapElements = SpareVectors<Wide>::kMaxBytes / 64;
  static_assert(kCapElements * sizeof(Wide) == std::size_t{64} << 20);
  drain<Wide>();
  std::vector<Wide> over;
  over.reserve(kCapElements + 1);
  SpareVectors<Wide>::give(std::move(over));
  EXPECT_EQ(SpareVectors<Wide>::take().capacity(), 0u);
  std::vector<Wide> at_cap;
  at_cap.reserve(kCapElements);
  SpareVectors<Wide>::give(std::move(at_cap));
  EXPECT_EQ(SpareVectors<Wide>::take().capacity(), kCapElements);
}

TEST(SpareVectors, SecondRunOnAThreadReusesCapacityAndBuildsTheSameTrace) {
  std::vector<Frame> first;
  {
    Orchestrator orch(small_config());
    const TestResult& result = orch.run();
    ASSERT_TRUE(result.integrity.ok()) << result.integrity.to_string();
    first = frames_of(result.trace);
  }
  ASSERT_FALSE(first.empty());

  Orchestrator orch(small_config());
  ASSERT_EQ(orch.dumpers().size(), 2u);
  for (const auto& dumper : orch.dumpers()) {
    EXPECT_GT(dumper->capture().bytes.capacity(), 0u);
    EXPECT_GT(dumper->capture().records.capacity(), 0u);
    EXPECT_TRUE(dumper->capture().bytes.empty());
    EXPECT_TRUE(dumper->capture().records.empty());
  }
  const TestResult& result = orch.run();
  ASSERT_TRUE(result.integrity.ok()) << result.integrity.to_string();
  EXPECT_EQ(frames_of(result.trace), first);
}

TEST(SpareVectors, TraceBuiltOnAWorkerDiesOnTheMainThread) {
  drain<TracePacket>();
  drain<std::uint8_t>();
  PacketTrace trace;
  std::vector<Frame> built;
  std::thread worker([&] {
    Orchestrator orch(small_config());
    trace = orch.run().trace;
    built = frames_of(trace);
  });
  worker.join();  // the worker's stashes are gone; the trace is not
  ASSERT_FALSE(built.empty());
  EXPECT_EQ(frames_of(trace), built);

  const std::size_t packets = trace.size();
  { const PacketTrace dying = std::move(trace); }
  // Its record vector and both slabs went to this thread's stashes.
  EXPECT_GE(SpareVectors<TracePacket>::take().capacity(), packets);
  EXPECT_GT(SpareVectors<std::uint8_t>::take().capacity(), 0u);
  EXPECT_GT(SpareVectors<std::uint8_t>::take().capacity(), 0u);
}

/// Receives a worker's trace; built before the worker's stashes, so it is
/// destroyed after them at thread exit.
struct TraceHolder {
  ~TraceHolder() {
    std::uint64_t sum = 0;
    for (const TracePacket& tp : trace) {
      for (const std::uint8_t b : tp.pkt.bytes) sum += b;
    }
    byte_sum_at_exit = sum;
    spare_capacity_at_exit = SpareVectors<TracePacket>::take().capacity();
  }
  PacketTrace trace;
  static inline std::uint64_t byte_sum_at_exit = 0;
  static inline std::size_t spare_capacity_at_exit = 1;
};

TraceHolder& thread_holder() {
  thread_local TraceHolder holder;
  return holder;
}

TEST(SpareVectors, TraceOutlivesItsThreadsStash) {
  std::uint64_t byte_sum = 0;
  std::thread worker([&] {
    TraceHolder& holder = thread_holder();
    {
      Orchestrator orch(small_config());
      holder.trace = orch.run().trace;
    }
    // The orchestrator's own trace filled the stash this thread built.
    const std::size_t packets = holder.trace.size();
    std::vector<TracePacket> spare = SpareVectors<TracePacket>::take();
    EXPECT_GE(spare.capacity(), packets);
    SpareVectors<TracePacket>::give(std::move(spare));
    for (const TracePacket& tp : holder.trace) {
      for (const std::uint8_t b : tp.pkt.bytes) byte_sum += b;
    }
  });
  worker.join();
  ASSERT_GT(byte_sum, 0u);
  // At thread exit the stash went first; the holder's trace still read its
  // bytes, then freed its buffers without touching the destroyed stash.
  EXPECT_EQ(TraceHolder::byte_sum_at_exit, byte_sum);
  EXPECT_EQ(TraceHolder::spare_capacity_at_exit, 0u);
}

}  // namespace
}  // namespace lumina
