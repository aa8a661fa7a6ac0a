#include "sim/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel.hpp"
#include "sim/random.hpp"

namespace rattrap::sim {
namespace {

struct Payload {
  std::uint64_t value = 0;
  std::string tag;
};

TEST(SlabArena, CreateDestroyRecyclesSlots) {
  SlabArena<Payload> arena;
  auto [first, slot_a] = arena.create();
  first->value = 41;
  EXPECT_EQ(arena.live(), 1u);
  arena.destroy(slot_a);
  EXPECT_EQ(arena.live(), 0u);
  // LIFO recycling: the freed slot is handed out again.
  auto [second, slot_b] = arena.create();
  EXPECT_EQ(slot_b, slot_a);
  // Placement-new ran: the recycled object is freshly constructed, not
  // the old bytes.
  EXPECT_EQ(second->value, 0u);
  EXPECT_EQ(arena.allocated_slots(), 1u);
  arena.destroy(slot_b);
}

TEST(SlabArena, AddressesAndSlotsAreStableAcrossGrowth) {
  SlabArena<Payload, 64> arena;  // small slabs force multi-slab growth
  std::vector<std::pair<Payload*, std::uint32_t>> objects;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    objects.push_back(arena.create());
    objects.back().first->value = i;
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(objects[i].first->value, i);
    EXPECT_EQ(&arena.at(objects[i].second), objects[i].first);
  }
  EXPECT_EQ(arena.live(), 1000u);
  EXPECT_GE(arena.capacity(), 1000u);
  for (auto& [object, slot] : objects) arena.destroy(slot);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(SlabArena, ChurnKeepsHighWaterBounded) {
  SlabArena<Payload> arena;
  std::uint32_t slot = arena.create().second;
  for (int i = 0; i < 10'000; ++i) {
    arena.destroy(slot);
    slot = arena.create().second;
  }
  EXPECT_EQ(arena.allocated_slots(), 1u);
  arena.destroy(slot);
}

// Reuse-after-free: freed cells are poisoned under AddressSanitizer, so
// a dangling read traps instead of aliasing the next tenant.  In plain
// builds poisoning is compiled out; the introspection hooks let the test
// assert the right behavior for the build it runs in.
TEST(SlabArena, FreedSlotsArePoisonedUnderAsan) {
  SlabArena<Payload> arena;
  const auto [object, slot] = arena.create();
  (void)object;
  EXPECT_FALSE(arena.slot_poisoned(slot));
  arena.destroy(slot);
  if (SlabArena<Payload>::poisoning_active()) {
    EXPECT_TRUE(arena.slot_poisoned(slot));
  } else {
    EXPECT_FALSE(arena.slot_poisoned(slot));
  }
  // Recycling unpoisons.
  const auto [fresh, reused] = arena.create();
  (void)fresh;
  EXPECT_EQ(reused, slot);
  EXPECT_FALSE(arena.slot_poisoned(reused));
  arena.destroy(reused);
}

TEST(SlabArena, NeverHandedOutSlotsStartPoisonedUnderAsan) {
  SlabArena<Payload> arena;
  (void)arena.create();  // materializes the first slab
  if (SlabArena<Payload>::poisoning_active()) {
    // Slot 1 exists in the slab but was never handed out.
    EXPECT_TRUE(arena.slot_poisoned(1));
  }
  arena.destroy(0);
}

// TSan arm: per-shard arenas under sim::parallel_for.  Arenas are
// single-threaded by contract — one arena per shard, never shared — and
// this test proves that usage is race-free (the TSan CI job runs it).
TEST(SlabArena, PerShardArenasUnderParallelFor) {
  constexpr std::size_t kShards = 8;
  std::vector<std::uint64_t> sums(kShards, 0);
  std::vector<std::unique_ptr<SlabArena<Payload>>> arenas;
  for (std::size_t s = 0; s < kShards; ++s) {
    arenas.push_back(std::make_unique<SlabArena<Payload>>());
  }
  parallel_for(kShards, [&](std::size_t shard) {
    SlabArena<Payload>& arena = *arenas[shard];
    Rng rng(shard + 1);
    std::vector<std::uint32_t> live;
    std::uint64_t sum = 0;
    for (int i = 0; i < 5'000; ++i) {
      if (live.empty() || rng.bernoulli(0.6)) {
        auto [object, slot] = arena.create();
        object->value = static_cast<std::uint64_t>(i);
        live.push_back(slot);
      } else {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        sum += arena.at(live[pick]).value;
        arena.destroy(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    for (const std::uint32_t slot : live) arena.destroy(slot);
    sums[shard] = sum;
  });
  // Deterministic per-shard results regardless of thread scheduling.
  std::vector<std::uint64_t> again(kShards, 0);
  parallel_for(kShards, [&](std::size_t shard) {
    SlabArena<Payload> arena;
    Rng rng(shard + 1);
    std::vector<std::uint32_t> live;
    std::uint64_t sum = 0;
    for (int i = 0; i < 5'000; ++i) {
      if (live.empty() || rng.bernoulli(0.6)) {
        auto [object, slot] = arena.create();
        object->value = static_cast<std::uint64_t>(i);
        live.push_back(slot);
      } else {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        sum += arena.at(live[pick]).value;
        arena.destroy(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    for (const std::uint32_t slot : live) arena.destroy(slot);
    again[shard] = sum;
  });
  EXPECT_EQ(sums, again);
}

}  // namespace
}  // namespace rattrap::sim
