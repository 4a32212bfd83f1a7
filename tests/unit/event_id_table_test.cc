// Property test for sim/event_id_table.h.
//
// The table was previously exercised only indirectly through the scheduler
// differential suites; this drives it directly against a naive model
// (a dead-id hash set plus per-chunk dead counts) under the cancel-heavy
// churn pattern the RNIC timer path produces:
// dense allocation bursts, kills in random order, repeat kills, probes of
// never-issued ids, and full-chunk retirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/event_id_table.h"

namespace lumina {
namespace {

/// Naive model: explicit dead set + per-chunk dead counters.
class ModelTable {
 public:
  void on_allocated(std::uint64_t id) { allocated_ = std::max(allocated_, id); }

  bool dead(std::uint64_t id) const {
    if (id > allocated_) return false;
    return dead_.count(id) != 0;
  }

  bool kill(std::uint64_t id) {
    if (id == 0 || id > allocated_) return false;
    if (!dead_.insert(id).second) return false;
    ++chunk_dead_[(id - 1) / EventIdTable::kIdsPerChunk];
    return true;
  }

  /// Chunks touched by allocation whose ids are not yet all dead.
  std::size_t live_chunks() const {
    if (allocated_ == 0) return 0;
    const std::uint64_t chunks =
        (allocated_ - 1) / EventIdTable::kIdsPerChunk + 1;
    std::size_t live = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const auto it = chunk_dead_.find(c);
      if (it == chunk_dead_.end() || it->second < EventIdTable::kIdsPerChunk) {
        ++live;
      }
    }
    return live;
  }

 private:
  std::uint64_t allocated_ = 0;
  std::unordered_set<std::uint64_t> dead_;
  std::unordered_map<std::uint64_t, std::uint64_t> chunk_dead_;
};

TEST(EventIdTable, CancelHeavyChurnMatchesModel) {
  for (int seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL);
    EventIdTable table;
    ModelTable model;
    std::uint64_t next_id = 1;
    std::vector<std::uint64_t> issued;

    for (int step = 0; step < 4000; ++step) {
      switch (rng() % 4) {
        case 0: {  // allocation burst (timer storm arming)
          const int burst = 1 + static_cast<int>(rng() % 300);
          for (int i = 0; i < burst; ++i) {
            table.on_allocated(next_id);
            model.on_allocated(next_id);
            issued.push_back(next_id);
            ++next_id;
          }
          break;
        }
        case 1: {  // probe: dead() agreement on issued and never-issued ids
          const std::uint64_t id =
              rng() % 2 == 0 && !issued.empty()
                  ? issued[rng() % issued.size()]
                  : next_id + rng() % 10'000;
          ASSERT_EQ(table.dead(id), model.dead(id))
              << "seed " << seed << " id " << id;
          break;
        }
        default: {  // cancel-heavy churn: kills dominate, often repeated
          if (issued.empty()) break;
          const int kills = 1 + static_cast<int>(rng() % 200);
          for (int i = 0; i < kills; ++i) {
            const std::uint64_t id = issued[rng() % issued.size()];
            ASSERT_EQ(table.kill(id), model.kill(id))
                << "seed " << seed << " id " << id;
          }
          break;
        }
      }
      if (step % 256 == 0) {
        ASSERT_EQ(table.live_chunks(), model.live_chunks())
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_EQ(table.live_chunks(), model.live_chunks()) << "seed " << seed;
  }
}

TEST(EventIdTable, ChunkRetiresExactlyAtFullDeath) {
  EventIdTable table;
  for (std::uint64_t id = 1; id <= EventIdTable::kIdsPerChunk; ++id) {
    table.on_allocated(id);
  }
  EXPECT_EQ(table.live_chunks(), 1u);
  // Kill all but one id, in a scrambled order.
  std::vector<std::uint64_t> order;
  for (std::uint64_t id = 1; id <= EventIdTable::kIdsPerChunk; ++id) {
    order.push_back(id);
  }
  std::mt19937_64 rng(12345);
  std::shuffle(order.begin(), order.end(), rng);
  const std::uint64_t survivor = order.back();
  order.pop_back();
  for (const std::uint64_t id : order) {
    ASSERT_TRUE(table.kill(id));
  }
  EXPECT_EQ(table.live_chunks(), 1u);  // one id still alive
  EXPECT_FALSE(table.dead(survivor));
  ASSERT_TRUE(table.kill(survivor));
  EXPECT_EQ(table.live_chunks(), 0u);  // retired at the 4096th death
  // Retired-chunk ids are dead by definition; killing them again is false.
  EXPECT_TRUE(table.dead(survivor));
  EXPECT_FALSE(table.kill(survivor));
  // A new chunk after retirement starts live again.
  table.on_allocated(EventIdTable::kIdsPerChunk + 1);
  EXPECT_EQ(table.live_chunks(), 1u);
  EXPECT_FALSE(table.dead(EventIdTable::kIdsPerChunk + 1));
}

TEST(EventIdTable, NeverIssuedIdsAreInert) {
  EventIdTable table;
  EXPECT_FALSE(table.dead(1));
  EXPECT_FALSE(table.kill(1));
  table.on_allocated(1);
  EXPECT_FALSE(table.dead(2));      // beyond the allocated range
  EXPECT_FALSE(table.kill(50'000));  // far beyond any chunk
  EXPECT_TRUE(table.kill(1));
  EXPECT_FALSE(table.kill(1));
}

}  // namespace
}  // namespace lumina
