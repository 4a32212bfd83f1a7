// Unit tests for the composable data-plane pipeline (src/pipeline): the
// stage-chain contract validation and the per-frame walk, which stops at
// the stage that retires a frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pipeline/stage.h"
#include "util/random.h"

namespace lumina::pipeline {
namespace {

// ---------------------------------------------------------------------------
// Synthetic stages. Each follows the stage discipline the production
// chains rely on: deterministic bodies and per-stage logs of what the
// stage saw, so a test can tell which frames reached which stage.
// ---------------------------------------------------------------------------

/// Classifier: seeds frame metadata from the frame bytes and marks frames
/// with a nonzero lead byte as "data".
class Tag : public Stage {
 public:
  explicit Tag(std::vector<std::uint64_t>& log) : log_(log) {}
  const char* name() const override { return "tag"; }
  StageContract contract() const override { return {.provides_view = true}; }
  bool process(Packet& pkt, FrameMeta& meta) override {
    meta.is_data = !pkt.bytes.empty() && pkt.bytes[0] != 0;
    log_.push_back(pkt.size());
    return true;
  }

 private:
  std::vector<std::uint64_t>& log_;
};

/// Byte transform with internal state: XORs every frame byte with a
/// rolling key that advances once per frame.
class Scramble : public Stage {
 public:
  explicit Scramble(std::vector<std::uint64_t>& log) : log_(log) {}
  const char* name() const override { return "scramble"; }
  StageContract contract() const override { return {.needs_view = true}; }
  bool process(Packet& pkt, FrameMeta&) override {
    key_ = key_ * 0x9e3779b97f4a7c15ULL + 1;
    for (auto& b : pkt.bytes) {
      b ^= static_cast<std::uint8_t>(key_);
    }
    log_.push_back(key_);
    return true;
  }

 private:
  std::uint64_t key_ = 0xabcdef;
  std::vector<std::uint64_t>& log_;
};

/// Retiring stage with internal state: retires every third frame it sees
/// (across calls, like a fault channel would).
class Cull : public Stage {
 public:
  explicit Cull(std::vector<std::uint64_t>& log) : log_(log) {}
  const char* name() const override { return "cull"; }
  StageContract contract() const override { return {.needs_view = true}; }
  bool process(Packet&, FrameMeta&) override {
    if (++seen_ % 3 != 0) return true;
    log_.push_back(seen_);
    return false;
  }

 private:
  std::uint64_t seen_ = 0;
  std::vector<std::uint64_t>& log_;
};

/// Pure observer: logs the size of every frame it sees.
class Observe : public Stage {
 public:
  explicit Observe(std::vector<std::uint64_t>& log) : log_(log) {}
  const char* name() const override { return "observe"; }
  StageContract contract() const override { return {.needs_view = true}; }
  bool process(Packet& pkt, FrameMeta&) override {
    log_.push_back(pkt.size());
    return true;
  }

 private:
  std::vector<std::uint64_t>& log_;
};

/// Deterministic frame with a random size and contents.
Packet random_frame(Rng& rng) {
  Packet pkt;
  pkt.bytes.resize(rng.next_below(256));
  for (auto& b : pkt.bytes) {
    b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return pkt;
}

// ---------------------------------------------------------------------------
// Contract validation
// ---------------------------------------------------------------------------

TEST(StageChainContract, NeedsViewBeforeClassifierThrows) {
  std::vector<std::uint64_t> log;
  StageChain chain;
  EXPECT_THROW(chain.append(std::make_unique<Observe>(log)),
               std::logic_error);
  chain.append(std::make_unique<Tag>(log));
  EXPECT_NO_THROW(chain.append(std::make_unique<Observe>(log)));
  EXPECT_EQ(chain.size(), 2u);
}

TEST(StageChainContract, DescribeNamesStagesInOrder) {
  std::vector<std::uint64_t> log;
  StageChain chain;
  chain.append(std::make_unique<Tag>(log));
  chain.append(std::make_unique<Scramble>(log));
  chain.append(std::make_unique<Cull>(log));
  EXPECT_EQ(chain.describe(), "tag -> scramble -> cull");
}

// ---------------------------------------------------------------------------
// The per-frame walk
// ---------------------------------------------------------------------------

TEST(StageChainWalk, RetiredFramesSkipLaterStages) {
  std::vector<std::uint64_t> tag_log;
  std::vector<std::uint64_t> cull_log;
  std::vector<std::uint64_t> observe_log;
  StageChain chain;
  chain.append(std::make_unique<Tag>(tag_log));
  chain.append(std::make_unique<Cull>(cull_log));
  chain.append(std::make_unique<Observe>(observe_log));

  Rng rng(0xfeed);
  for (int j = 0; j < 9; ++j) {
    Packet pkt = random_frame(rng);
    FrameMeta meta;
    meta.in_port = j % 3;
    meta.ingress_ts = static_cast<Tick>(j * 100);
    chain.run(pkt, meta);
  }
  // Every frame reaches the classifier; Cull retires every third one, and
  // Observe sees only the survivors.
  EXPECT_EQ(tag_log.size(), 9u);
  EXPECT_EQ(cull_log, (std::vector<std::uint64_t>{3, 6, 9}));
  EXPECT_EQ(observe_log.size(), 6u);
}

}  // namespace
}  // namespace lumina::pipeline
