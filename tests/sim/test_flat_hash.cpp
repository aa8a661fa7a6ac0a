#include "sim/flat_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"

namespace rattrap::sim {
namespace {

TEST(FlatHashMap, InsertFindErase) {
  FlatHashMap<std::uint64_t, std::string> map;
  EXPECT_TRUE(map.empty());
  map.insert_or_assign(7, "seven");
  map.insert_or_assign(11, "eleven");
  ASSERT_NE(map.find(std::uint64_t{7}), nullptr);
  EXPECT_EQ(*map.find(std::uint64_t{7}), "seven");
  EXPECT_EQ(map.find(std::uint64_t{8}), nullptr);
  EXPECT_EQ(map.size(), 2u);

  map.insert_or_assign(7, "SEVEN");  // assign, not duplicate
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.find(std::uint64_t{7}), "SEVEN");

  EXPECT_TRUE(map.erase(std::uint64_t{7}));
  EXPECT_FALSE(map.erase(std::uint64_t{7}));
  EXPECT_EQ(map.find(std::uint64_t{7}), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, HeterogeneousStringLookup) {
  FlatHashMap<std::string, int> map;
  map.insert_or_assign("dev:42", 1);
  // string_view lookup without constructing a std::string.
  EXPECT_NE(map.find(std::string_view("dev:42")), nullptr);
  EXPECT_EQ(map.find(std::string_view("dev:43")), nullptr);
  EXPECT_TRUE(map.contains(std::string_view("dev:42")));
}

TEST(FlatHashMap, OperatorBracketDefaultConstructs) {
  FlatHashMap<std::uint32_t, std::vector<int>> map;
  map[5].push_back(1);
  map[5].push_back(2);
  ASSERT_NE(map.find(5u), nullptr);
  EXPECT_EQ(map.find(5u)->size(), 2u);
}

TEST(FlatHashMap, BackwardShiftEraseKeepsProbeChainsIntact) {
  // Dense sequential keys maximize probe-chain overlap; randomized
  // erase/insert churn against a std::map oracle catches any
  // backward-shift bookkeeping error (the classic open-addressing bug:
  // erasing breaks lookups for keys displaced past the hole).
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(99);
  for (int op = 0; op < 20'000; ++op) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 400));
    if (rng.bernoulli(0.6)) {
      const auto value = static_cast<std::uint64_t>(op);
      map.insert_or_assign(key, value);
      oracle[key] = value;
    } else {
      EXPECT_EQ(map.erase(key), oracle.erase(key) > 0) << "op " << op;
    }
    if (op % 1000 == 0) {
      ASSERT_EQ(map.size(), oracle.size()) << "op " << op;
      for (const auto& [k, v] : oracle) {
        const std::uint64_t* found = map.find(k);
        ASSERT_NE(found, nullptr) << "lost key " << k << " at op " << op;
        ASSERT_EQ(*found, v) << "key " << k << " at op " << op;
      }
    }
  }
  ASSERT_EQ(map.size(), oracle.size());
  std::size_t visited = 0;
  map.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    ++visited;
    auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(it->second, v);
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatHashMap, SurvivesRehashGrowth) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    map.insert_or_assign(i * 2654435761u, i);
  }
  EXPECT_EQ(map.size(), 10'000u);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const std::uint64_t* found = map.find(i * 2654435761u);
    ASSERT_NE(found, nullptr) << i;
    EXPECT_EQ(*found, i);
  }
}

}  // namespace
}  // namespace rattrap::sim
