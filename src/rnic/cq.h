// Shared completion queue with optional batched dispatch.
//
// At small scale each QP carried its own std::function completion
// callback; at 10^6 QPs that is a million closures and a virtual-call-ish
// indirection per completion. A CompletionQueue decouples the two: QPs
// bound to a CQ push (user_data, WorkCompletion) entries and the owner
// installs ONE handler, demultiplexing on the 8-byte user_data it chose
// at bind time (libibverbs' wr_id/cq_context idiom).
//
// Dispatch modes:
//  * immediate (default): post() invokes the handler synchronously — the
//    exact moment the per-QP callback used to run, so default-path runs
//    are byte-identical;
//  * batched (opt-in): entries accumulate and a single zero-delay drain
//    event polls them in FIFO order, amortizing handler dispatch across a
//    burst of completions (the qp_scaling regime). Batching inserts sim
//    events, so it must stay off where trace byte-identity matters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "rnic/verbs.h"
#include "sim/simulator.h"

namespace lumina {

class CompletionQueue {
 public:
  using Handler =
      std::function<void(std::uint64_t user_data, const WorkCompletion&)>;

  explicit CompletionQueue(Simulator* sim) : sim_(sim) {}

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Switches to batched dispatch. Flip only while the queue is empty.
  void set_batching(bool on) { batching_ = on; }
  bool batching() const { return batching_; }

  /// Called by bound QPs. Immediate mode dispatches synchronously;
  /// batched mode enqueues and arms one drain event per burst.
  void post(std::uint64_t user_data, const WorkCompletion& wc);

  /// Drains up to `max_entries` queued completions into the handler in
  /// FIFO order; returns how many were dispatched. Entries posted by the
  /// handler itself (e.g. synchronous flushes) join the same drain.
  std::size_t poll(std::size_t max_entries);

  std::size_t depth() const { return queue_.size() - head_; }

  // -- stats -----------------------------------------------------------------
  std::uint64_t posted_total() const { return posted_total_; }
  std::uint64_t batches_dispatched() const { return batches_dispatched_; }
  std::size_t max_depth() const { return max_depth_; }

 private:
  struct Entry {
    std::uint64_t user_data;
    WorkCompletion wc;
  };

  Simulator* sim_;
  Handler handler_;
  bool batching_ = false;
  bool drain_scheduled_ = false;
  std::vector<Entry> queue_;  // FIFO ring: [head_, size) are pending
  std::size_t head_ = 0;
  std::uint64_t posted_total_ = 0;
  std::uint64_t batches_dispatched_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace lumina
