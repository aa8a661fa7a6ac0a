#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include "workloads/workload.hpp"

namespace rattrap::workloads {
namespace {

TEST(Generator, StreamHasRequestedShape) {
  StreamConfig config;
  config.kind = Kind::kOcr;
  config.count = 20;
  config.devices = 5;
  const auto stream = make_stream(config);
  ASSERT_EQ(stream.size(), 20u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].sequence, i);
    EXPECT_EQ(stream[i].device_id, i % 5);
    EXPECT_EQ(stream[i].task.kind, Kind::kOcr);
  }
}

TEST(Generator, ArrivalsAreNondecreasing) {
  StreamConfig config;
  config.count = 50;
  const auto stream = make_stream(config);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GE(stream[i].arrival, stream[i - 1].arrival);
  }
}

TEST(Generator, DeterministicInSeed) {
  StreamConfig config;
  config.count = 10;
  config.seed = 77;
  const auto a = make_stream(config);
  const auto b = make_stream(config);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].task.seed, b[i].task.seed);
  }
}

TEST(Generator, MeanGapApproximatelyHonored) {
  StreamConfig config;
  config.count = 2000;
  config.mean_gap = 3 * sim::kSecond;
  const auto stream = make_stream(config);
  const double total = sim::to_seconds(stream.back().arrival);
  EXPECT_NEAR(total / 2000.0, 3.0, 0.3);
}

TEST(Generator, MixedStreamInterleavesAllKinds) {
  const auto stream =
      make_mixed_stream(5, 5, 2 * sim::kSecond, 11);
  ASSERT_EQ(stream.size(), 20u);
  std::array<int, kKindCount> counts{};
  for (const auto& request : stream) {
    ++counts[static_cast<std::size_t>(request.task.kind)];
  }
  for (const int c : counts) EXPECT_EQ(c, 5);
  // Sequences are re-numbered after the merge sort.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].sequence, i);
    if (i > 0) {
      EXPECT_GE(stream[i].arrival, stream[i - 1].arrival);
    }
  }
}

TEST(Generator, StreamFromArrivalsUsesTimestamps) {
  const std::vector<sim::SimTime> arrivals = {10, 20, 35};
  const auto stream =
      make_stream_from_arrivals(Kind::kChess, arrivals, 2, 1, 5);
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream[0].arrival, 10);
  EXPECT_EQ(stream[2].arrival, 35);
  EXPECT_EQ(stream[0].device_id, 0u);
  EXPECT_EQ(stream[1].device_id, 1u);
  EXPECT_EQ(stream[2].device_id, 0u);
}

TEST(Generator, DefaultSizeClassesAreNonzero) {
  for (const auto kind :
       {Kind::kOcr, Kind::kChess, Kind::kVirusScan, Kind::kLinpack}) {
    EXPECT_GE(default_size_class(kind), 1u);
  }
}

TEST(Generator, ExecuteTaskCachedMatchesDirectExecution) {
  sim::Rng rng(3);
  const auto workload = make_workload(Kind::kLinpack);
  const TaskSpec spec = workload->make_task(rng, 1);
  const TaskResult direct = workload->execute(spec);
  const TaskResult cached1 = execute_task_cached(spec);
  const TaskResult cached2 = execute_task_cached(spec);
  EXPECT_EQ(direct.checksum, cached1.checksum);
  EXPECT_EQ(cached1.units.compute, cached2.units.compute);
}

}  // namespace
}  // namespace rattrap::workloads
