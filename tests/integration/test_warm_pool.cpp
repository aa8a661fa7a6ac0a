// Warm-pool provisioning policy (§III-B's pre-loading alternative): with
// the elastic controller disabled, elastic.static_target environments are
// booted once at reset and never replenished.
#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

std::vector<workloads::OffloadRequest> ocr_stream(std::size_t count = 10) {
  workloads::StreamConfig config;
  config.kind = workloads::Kind::kOcr;
  config.count = count;
  config.devices = 5;
  config.mean_gap = 6 * sim::kSecond;
  config.size_class = workloads::default_size_class(config.kind);
  config.seed = 23;
  return workloads::make_stream(config);
}

TEST(WarmPool, RemovesColdStartFailuresOnVm) {
  const auto stream = ocr_stream();
  PlatformConfig cold = make_config(PlatformKind::kVmCloud);
  PlatformConfig warm = make_config(PlatformKind::kVmCloud);
  warm.elastic.static_target = 5;

  std::size_t cold_failures = 0, warm_failures = 0;
  {
    Platform platform(cold);
    for (const auto& o : platform.run(stream)) {
      if (o.offloading_failure()) ++cold_failures;
    }
  }
  {
    Platform platform(warm);
    for (const auto& o : platform.run(stream)) {
      if (o.offloading_failure()) ++warm_failures;
    }
  }
  EXPECT_GT(cold_failures, 0u);
  EXPECT_LT(warm_failures, cold_failures);
}

TEST(WarmPool, PoolEnvironmentsAreClaimedNotDuplicated) {
  const auto stream = ocr_stream();
  PlatformConfig config = make_config(PlatformKind::kVmCloud);
  config.elastic.static_target = 5;
  Platform platform(config);
  platform.run(stream);
  // 5 devices, 5 pooled environments: no additional boots needed.
  EXPECT_EQ(platform.env_count(), 5u);
}

TEST(WarmPool, FixedPoolRunsNoController) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.elastic.static_target = 3;
  Platform platform(config);
  platform.run(ocr_stream());
  const obs::Counter* prewarmed =
      platform.metrics().find_counter("elastic.prewarmed");
  ASSERT_NE(prewarmed, nullptr);
  EXPECT_EQ(prewarmed->value(), 3u);  // booted once, never replenished
  EXPECT_EQ(platform.metrics().find_gauge("elastic.target"), nullptr);
}

TEST(WarmPool, OverflowBeyondPoolProvisionsOnDemand) {
  // 5 devices but only a pool of 2: the remaining 3 boot on demand.
  const auto stream = ocr_stream();
  PlatformConfig config = make_config(PlatformKind::kVmCloud);
  config.elastic.static_target = 2;
  Platform platform(config);
  platform.run(stream);
  EXPECT_EQ(platform.env_count(), 5u);
}

TEST(WarmPool, PoolCostsMemoryTime) {
  const auto stream = ocr_stream();
  PlatformConfig cold = make_config(PlatformKind::kVmCloud);
  PlatformConfig warm = cold;
  warm.elastic.static_target = 5;
  Platform a(cold);
  a.run(stream);
  Platform b(warm);
  b.run(stream);
  // The pool is booted at t=0 and held; on-demand envs commit later, so
  // the warm configuration accumulates more byte-seconds.
  EXPECT_GT(b.capacity().memory_time_byte_seconds(),
            a.capacity().memory_time_byte_seconds());
}

TEST(WarmPool, UnusedPoolEnvsSurviveIdleReclaim) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.elastic.static_target = 3;
  config.env_idle_timeout = 10 * sim::kSecond;
  Platform platform(config);
  // One device, one request: two pool envs stay unclaimed and must not
  // be reclaimed (they are the standby capacity the operator asked for).
  workloads::StreamConfig sc;
  sc.kind = workloads::Kind::kLinpack;
  sc.count = 1;
  sc.devices = 1;
  sc.size_class = 2;
  platform.run(workloads::make_stream(sc));
  EXPECT_EQ(platform.env_count(), 3u);
  // The claimed env is eventually reclaimed, the standby ones are not.
  EXPECT_LE(platform.env_table().count(EnvState::kReclaimed), 1u);
}

}  // namespace
}  // namespace rattrap::core
