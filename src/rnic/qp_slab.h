// Flat, index-addressed QP storage.
//
// A million-QP RNIC cannot afford one heap object (plus one DcqcnRp heap
// object, plus hash-map nodes) per queue pair. The slab packs QueuePair
// and DcqcnRp state into chunked arenas addressed by a 32-bit slot:
//
//  * chunks are allocated once and never move, so raw QueuePair pointers
//    handed to the host layer stay valid for the QP's lifetime;
//  * destroyed slots go on a LIFO free list and are recycled in place; a
//    per-slot generation counter makes stale QpIndex handles detectable;
//  * the scheduler-hot per-QP fields the egress engine touches every pump
//    (DCQCN pacing gate, traffic-class membership) live in a dense
//    structure-of-arrays row (QpHot) separate from the cold transport
//    state, so the pump scan walks a compact array instead of chasing
//    per-QP allocations.
//
// The slab owns construction and destruction; Rnic owns the slab.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rnic/dcqcn.h"
#include "rnic/qp.h"
#include "util/time.h"

namespace lumina {

/// Scheduler-hot per-QP fields, one dense row per slot. Everything the
/// egress pump reads or writes per scan lives here; QueuePair keeps the
/// cold transport state.
struct QpHot {
  Tick pacing_next = 0;      ///< DCQCN pacing: earliest next TX time.
  std::int32_t tc = 0;       ///< ETS traffic class.
  std::uint32_t tc_pos = 0;  ///< Position in the class's member table.
};

class QpSlab {
 public:
  /// QPs (and their DcqcnRp siblings) are constructed in place inside
  /// fixed-size chunks so addresses never move as the slab grows.
  static constexpr std::uint32_t kChunkSize = 256;

  QpSlab() = default;
  ~QpSlab();

  QpSlab(const QpSlab&) = delete;
  QpSlab& operator=(const QpSlab&) = delete;

  /// Constructs a QueuePair and its DCQCN reaction point in the next free
  /// slot (recycling destroyed slots LIFO) and returns its handle.
  QpIndex create(Rnic* rnic, std::uint32_t qpn, const QpConfig& config,
                 Simulator* sim, const DcqcnParams& dcqcn, double link_gbps,
                 bool rp_enabled);

  /// Destroys the QP behind `index` (no-op on a stale handle) and returns
  /// its slot to the free list under a bumped generation.
  void destroy(QpIndex index);

  /// Resolves a handle; nullptr if the slot was destroyed or recycled.
  QueuePair* get(QpIndex index) {
    if (index.slot >= gen_.size() || gen_[index.slot] != index.gen ||
        !live_[index.slot]) {
      return nullptr;
    }
    return &qp_at(index.slot);
  }

  // Unchecked slot access for internal tables that track liveness
  // themselves (the Rnic's per-TC member lists and qpn map).
  QueuePair& qp_at(std::uint32_t slot) {
    return *qp_ptr(chunks_[slot / kChunkSize].get(), slot % kChunkSize);
  }
  DcqcnRp& rp_at(std::uint32_t slot) {
    return *rp_ptr(chunks_[slot / kChunkSize].get(), slot % kChunkSize);
  }
  QpHot& hot(std::uint32_t slot) { return hot_[slot]; }
  const QpHot& hot(std::uint32_t slot) const { return hot_[slot]; }

  /// Pre-allocates chunk and SoA capacity for `n` total slots, so a bulk
  /// setup phase (the qp_scaling bench, a large TestbedSpec fan-out) pays
  /// no growth reallocations.
  void reserve(std::size_t n);

  std::size_t live_count() const { return live_count_; }
  std::size_t capacity() const { return chunks_.size() * kChunkSize; }
  std::uint64_t created_total() const { return created_total_; }
  std::uint64_t recycled_total() const { return recycled_total_; }

 private:
  // Raw storage for kChunkSize QueuePair+DcqcnRp pairs. Kept as byte
  // arenas: slots are constructed/destructed individually as they are
  // created and destroyed.
  struct Chunk {
    alignas(QueuePair) unsigned char qp_mem[sizeof(QueuePair) * kChunkSize];
    alignas(DcqcnRp) unsigned char rp_mem[sizeof(DcqcnRp) * kChunkSize];
  };

  static QueuePair* qp_ptr(Chunk* c, std::uint32_t off) {
    return reinterpret_cast<QueuePair*>(c->qp_mem) + off;
  }
  static DcqcnRp* rp_ptr(Chunk* c, std::uint32_t off) {
    return reinterpret_cast<DcqcnRp*>(c->rp_mem) + off;
  }

  void grow_to(std::size_t slots);

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<QpHot> hot_;             // dense SoA row per slot
  std::vector<std::uint32_t> gen_;     // generation per slot
  std::vector<bool> live_;             // constructed per slot
  std::vector<std::uint32_t> free_;    // LIFO recycled slots
  std::uint32_t next_fresh_ = 0;       // first never-used slot
  std::size_t live_count_ = 0;
  std::uint64_t created_total_ = 0;
  std::uint64_t recycled_total_ = 0;
};

}  // namespace lumina
