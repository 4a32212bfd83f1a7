#include "rnic/qp_slab.h"

#include <new>

namespace lumina {

QpSlab::~QpSlab() {
  for (std::uint32_t slot = 0; slot < next_fresh_; ++slot) {
    if (!live_[slot]) continue;
    qp_at(slot).~QueuePair();
    rp_at(slot).~DcqcnRp();
  }
}

void QpSlab::grow_to(std::size_t slots) {
  while (capacity() < slots) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  if (hot_.size() < capacity()) {
    hot_.resize(capacity());
    gen_.resize(capacity(), 0);
    live_.resize(capacity(), false);
  }
}

void QpSlab::reserve(std::size_t n) {
  grow_to(n);
  free_.reserve(n);
}

QpIndex QpSlab::create(Rnic* rnic, std::uint32_t qpn, const QpConfig& config,
                       Simulator* sim, const DcqcnParams& dcqcn,
                       double link_gbps, bool rp_enabled) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    ++recycled_total_;
  } else {
    slot = next_fresh_++;
    grow_to(next_fresh_);
  }
  Chunk* chunk = chunks_[slot / kChunkSize].get();
  const std::uint32_t off = slot % kChunkSize;
  new (qp_ptr(chunk, off)) QueuePair(rnic, qpn, config);
  DcqcnRp* rp = new (rp_ptr(chunk, off)) DcqcnRp(sim, dcqcn, link_gbps);
  rp->set_enabled(rp_enabled);
  hot_[slot] = QpHot{};
  live_[slot] = true;
  ++live_count_;
  ++created_total_;
  return QpIndex{slot, gen_[slot]};
}

void QpSlab::destroy(QpIndex index) {
  if (get(index) == nullptr) return;
  const std::uint32_t slot = index.slot;
  qp_at(slot).~QueuePair();
  rp_at(slot).~DcqcnRp();
  live_[slot] = false;
  ++gen_[slot];  // stale handles to this slot stop resolving
  --live_count_;
  free_.push_back(slot);
}

}  // namespace lumina
