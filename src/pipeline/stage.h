// Composable data-plane stages (docs/packet.md "Pipeline").
//
// A Stage is one match/action step of a node's on-path processing —
// classify, event match, transform, mirror tap, emit — with an explicit
// contract. A StageChain assembles a node's stages in order, validates
// the contracts at append time, and walks each frame the event kernel
// delivers through them. A stage that retires the frame (drops it, or
// moves it onward into the event kernel or a capture store) returns
// false and the walk stops there; the node's handle_packet holds a
// ScopedPacketReclaim, so a buffer left behind is recycled exactly once.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "packet/roce_packet.h"
#include "util/time.h"

namespace lumina::pipeline {

/// Per-frame metadata. `in_port`/`ingress_ts` are stamped by the node's
/// handle_packet; the rest is scratch a node's stages pass between one
/// another (each node's chain documents which fields it uses). Scratch
/// starts zeroed for every frame.
struct FrameMeta {
  int in_port = 0;
  Tick ingress_ts = 0;

  /// The frame's RoCE parse, decoded once by the chain's classifying
  /// stage; empty when the frame is not RoCE. It describes the bytes as
  /// they arrived: a later stage that rewrites a header field reads that
  /// field from the bytes, not from here.
  std::optional<RoceView> view;

  // Injector-switch scratch (classify -> match -> transform -> mirror ->
  // emit).
  Tick base_latency = 0;   ///< Pipeline latency accumulated so far.
  Tick event_delay = 0;    ///< Injected hold from a matched delay event.
  EventType event = EventType::kNone;
  bool is_data = false;    ///< Data-carrying opcode (set by classify).
  bool burst_dropped = false;  ///< Gilbert–Elliott channel verdict.
};

/// What a stage requires from the frames it receives. Checked when the
/// stage is appended to a chain, so an ill-formed assembly fails at
/// construction, not as silent garbage mid-run.
struct StageContract {
  /// Runs on classified frames only: it may read `FrameMeta::view`, so a
  /// classifying stage must precede it.
  bool needs_view = false;
  /// Classifies: decodes the frame once and sets `FrameMeta::view`.
  bool provides_view = false;
};

class Stage {
 public:
  virtual ~Stage() = default;

  virtual const char* name() const = 0;
  virtual StageContract contract() const = 0;

  /// Processes one frame. Returns false once the stage has retired it
  /// (dropped, or moved onward); later stages then never see it.
  virtual bool process(Packet& pkt, FrameMeta& meta) = 0;
};

class StageChain {
 public:
  /// Appends a stage, validating its contract against the chain so far.
  /// Throws std::logic_error when a stage that needs classified frames is
  /// appended before any classifying stage.
  void append(std::unique_ptr<Stage> stage);

  std::size_t size() const { return stages_.size(); }

  /// Walks the frame through the stages in order, stopping at the first
  /// stage that retires it.
  void run(Packet& pkt, FrameMeta& meta) const {
    for (const auto& stage : stages_) {
      if (!stage->process(pkt, meta)) return;
    }
  }

  /// "stage0 -> stage1 -> ..." (diagnostics, docs, test failure output).
  std::string describe() const;

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  bool have_classifier_ = false;
};

}  // namespace lumina::pipeline
