#include "sim/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace rattrap::sim {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, ZeroAndOneIterations) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ResultsMatchSequentialBaseline) {
  constexpr std::size_t kN = 500;
  std::vector<long> parallel_out(kN), sequential_out(kN);
  const auto f = [](std::size_t i) {
    return static_cast<long>(i * i % 97);
  };
  parallel_for(kN, [&](std::size_t i) { parallel_out[i] = f(i); }, 8);
  for (std::size_t i = 0; i < kN; ++i) sequential_out[i] = f(i);
  EXPECT_EQ(parallel_out, sequential_out);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::atomic<int> counter{0};
  parallel_for(3, [&](std::size_t) { ++counter; }, 16);
  EXPECT_EQ(counter.load(), 3);
}

}  // namespace
}  // namespace rattrap::sim
