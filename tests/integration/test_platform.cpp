// End-to-end platform behaviour across the three evaluated systems.
#include "core/platform.hpp"

#include <gtest/gtest.h>

#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

std::vector<workloads::OffloadRequest> small_stream(
    workloads::Kind kind, std::size_t count = 10,
    std::uint64_t seed = 21) {
  workloads::StreamConfig config;
  config.kind = kind;
  config.count = count;
  config.devices = 5;
  config.mean_gap = 6 * sim::kSecond;
  config.size_class = workloads::default_size_class(kind);
  config.seed = seed;
  return workloads::make_stream(config);
}

TEST(Platform, RunsAStreamToCompletion) {
  Platform platform(make_config(PlatformKind::kRattrap));
  const auto stream = small_stream(workloads::Kind::kLinpack);
  const auto outcomes = platform.run(stream);
  ASSERT_EQ(outcomes.size(), stream.size());
  for (const auto& outcome : outcomes) {
    EXPECT_GT(outcome.response, 0);
    EXPECT_GT(outcome.local_time, 0);
    EXPECT_GT(outcome.phases.network_connection, 0);
    EXPECT_GE(outcome.phases.runtime_preparation, 0);
    EXPECT_GT(outcome.phases.data_transfer, 0);
    EXPECT_GT(outcome.phases.computation, 0);
    EXPECT_GT(outcome.offload_energy_mj, 0.0);
    EXPECT_GT(outcome.local_energy_mj, 0.0);
  }
}

TEST(Platform, PhasesSumNearResponse) {
  Platform platform(make_config(PlatformKind::kRattrapWithoutOpt));
  const auto outcomes =
      platform.run(small_stream(workloads::Kind::kLinpack));
  for (const auto& outcome : outcomes) {
    // The response may exceed the sum only by the internal platform
    // bookkeeping costs (dispatcher, access analysis, lookup: < 100 ms).
    EXPECT_GE(outcome.response, outcome.phases.total());
    EXPECT_LT(outcome.response - outcome.phases.total(),
              sim::from_millis(100));
  }
}

TEST(Platform, FirstVmRequestIsAnOffloadingFailure) {
  // Observation 1: each VM's first request fails due to cold start.
  Platform platform(make_config(PlatformKind::kVmCloud));
  const auto outcomes =
      platform.run(small_stream(workloads::Kind::kChess));
  EXPECT_LT(outcomes[0].speedup, 1.0);
}

TEST(Platform, RattrapOutperformsVmOnAverage) {
  const auto stream = small_stream(workloads::Kind::kOcr);
  double vm_mean = 0, rattrap_mean = 0;
  {
    Platform vm(make_config(PlatformKind::kVmCloud));
    for (const auto& o : vm.run(stream)) vm_mean += o.speedup;
  }
  {
    Platform rattrap(make_config(PlatformKind::kRattrap));
    for (const auto& o : rattrap.run(stream)) rattrap_mean += o.speedup;
  }
  EXPECT_GT(rattrap_mean, vm_mean);
}

TEST(Platform, CodeCacheHitsAfterFirstRequest) {
  Platform platform(make_config(PlatformKind::kRattrap));
  const auto outcomes =
      platform.run(small_stream(workloads::Kind::kLinpack));
  EXPECT_FALSE(outcomes[0].code_cache_hit);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].code_cache_hit) << i;
  }
  EXPECT_EQ(platform.server().warehouse().entry_count(), 1u);
}

TEST(Platform, VmPlatformRetransfersCodePerEnvironment) {
  // Observation 3: without a cache, the same mobile code reaches every
  // VM once — 5 devices, 5 VMs, 5 code pushes.
  Platform platform(make_config(PlatformKind::kVmCloud));
  const auto outcomes =
      platform.run(small_stream(workloads::Kind::kLinpack));
  std::uint64_t code_up = 0;
  for (const auto& outcome : outcomes) {
    code_up += outcome.traffic.up_bytes(net::MessageType::kMobileCode);
  }
  const auto apk =
      workloads::make_workload(workloads::Kind::kLinpack)->app().apk_bytes;
  EXPECT_EQ(code_up, 5 * apk);
}

TEST(Platform, RattrapTransfersCodeExactlyOnce) {
  Platform platform(make_config(PlatformKind::kRattrap));
  const auto outcomes =
      platform.run(small_stream(workloads::Kind::kLinpack));
  std::uint64_t code_up = 0;
  for (const auto& outcome : outcomes) {
    code_up += outcome.traffic.up_bytes(net::MessageType::kMobileCode);
  }
  const auto apk =
      workloads::make_workload(workloads::Kind::kLinpack)->app().apk_bytes;
  EXPECT_EQ(code_up, apk);
}

TEST(Platform, EnvironmentsBootOnDemandPerDevice) {
  Platform platform(make_config(PlatformKind::kVmCloud));
  platform.run(small_stream(workloads::Kind::kLinpack));
  EXPECT_EQ(platform.env_count(), 5u);  // one VM per device
  // run() drains the event queue, which includes the idle-reclaim timers:
  // with no further work every environment has been reclaimed by the end.
  EXPECT_EQ(platform.env_table().live_count(), 0u);
  EXPECT_EQ(platform.env_table().count(EnvState::kReclaimed), 5u);
  EXPECT_EQ(platform.server().hypervisor().memory_committed(), 0u);
}

TEST(Platform, IdleEnvironmentsAreReclaimedMidRun) {
  // Two requests separated by more than the idle timeout: the second one
  // must pay a fresh cold start (the §VI-E trace-replay behaviour).
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.env_idle_timeout = 30 * sim::kSecond;
  Platform platform(config);
  const auto workload = workloads::make_workload(workloads::Kind::kLinpack);
  sim::Rng rng(5);
  std::vector<workloads::OffloadRequest> stream(2);
  stream[0].sequence = 0;
  stream[0].device_id = 0;
  stream[0].task = workload->make_task(rng, 2);
  stream[0].arrival = 0;
  stream[1].sequence = 1;
  stream[1].device_id = 0;
  stream[1].task = workload->make_task(rng, 2);
  stream[1].arrival = 5 * sim::kMinute;  // far past the 30 s timeout
  const auto outcomes = platform.run(stream);
  EXPECT_EQ(platform.env_count(), 2u);  // a second env was provisioned
  // Both requests paid runtime preparation (boot), unlike back-to-back
  // requests which reuse the warm environment.
  EXPECT_GT(outcomes[1].phases.runtime_preparation, sim::kSecond);
  // The code cache survives reclamation (it lives host-side).
  EXPECT_TRUE(outcomes[1].code_cache_hit);
}

TEST(Platform, ZeroTimeoutDisablesReclamation) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.env_idle_timeout = 0;
  Platform platform(config);
  platform.run(small_stream(workloads::Kind::kLinpack));
  EXPECT_EQ(platform.env_table().count(EnvState::kReclaimed), 0u);
}

TEST(Platform, MonitorRecordsServerLoad) {
  Platform platform(make_config(PlatformKind::kVmCloud));
  platform.run(small_stream(workloads::Kind::kOcr));
  EXPECT_GT(platform.server().monitor().total_busy(), 0);
  EXPECT_GT(platform.server().disk().total_read_bytes(), 0u);
}

TEST(Platform, IdenticalStreamsReplayIdentically) {
  const auto stream = small_stream(workloads::Kind::kVirusScan, 6);
  Platform a(make_config(PlatformKind::kRattrap));
  Platform b(make_config(PlatformKind::kRattrap));
  const auto ra = a.run(stream);
  const auto rb = b.run(stream);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].response, rb[i].response);
    EXPECT_EQ(ra[i].traffic.total_up(), rb[i].traffic.total_up());
  }
}

TEST(Platform, AccessControllerAnalyzesEachAppOnce) {
  Platform platform(make_config(PlatformKind::kRattrap));
  platform.run(small_stream(workloads::Kind::kChess));
  EXPECT_EQ(platform.server().access().table_count(), 1u);
  EXPECT_FALSE(platform.server().access().blocked_at(
      "com.bench.chess", platform.server().simulator().now()));
}

TEST(Platform, MixedWorkloadStreamWorks) {
  Platform platform(make_config(PlatformKind::kRattrap));
  const auto stream =
      workloads::make_mixed_stream(3, 5, 4 * sim::kSecond, 9);
  const auto outcomes = platform.run(stream);
  EXPECT_EQ(outcomes.size(), 12u);
  EXPECT_EQ(platform.server().warehouse().entry_count(), 4u);
  EXPECT_EQ(platform.server().access().table_count(), 4u);
}

TEST(Platform, BinderDriverServesContainerRequests) {
  Platform platform(make_config(PlatformKind::kRattrap));
  platform.run(small_stream(workloads::Kind::kChess));
  // Offloaded chess tasks issue binder transactions through the ACD.
  EXPECT_GT(platform.server().kernel().syscalls().calls(
                kernel::kSysBinderTransact),
            0u);
}

}  // namespace
}  // namespace rattrap::core
