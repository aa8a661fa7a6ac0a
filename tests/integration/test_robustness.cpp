// Failure injection: capacity walls, tmpfs exhaustion, contention and the
// adaptive offloading decision.
#include <gtest/gtest.h>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

std::vector<workloads::OffloadRequest> dense_stream(
    workloads::Kind kind, std::uint32_t devices, std::size_t per_device,
    std::uint64_t seed = 9, sim::SimDuration mean_gap = sim::kSecond) {
  workloads::StreamConfig config;
  config.kind = kind;
  config.count = devices * per_device;
  config.devices = devices;
  config.mean_gap = mean_gap;
  config.size_class = 2;
  config.seed = seed;
  return workloads::make_stream(config);
}

// Every device fires at t = 0: maximum concurrency.
std::vector<workloads::OffloadRequest> simultaneous_stream(
    workloads::Kind kind, std::uint32_t devices, std::uint64_t seed = 9) {
  const std::vector<sim::SimTime> arrivals(devices, 0);
  return workloads::make_stream_from_arrivals(kind, arrivals, devices, 2,
                                              seed);
}

TEST(Robustness, VmPlatformRejectsBeyondMemoryWall) {
  // 16 GB / 512 MB = 31 concurrent VMs; 40 devices exceed the wall.
  Platform platform(make_config(PlatformKind::kVmCloud));
  const auto outcomes =
      platform.run(dense_stream(workloads::Kind::kLinpack, 40, 1));
  std::size_t rejected = 0;
  for (const auto& o : outcomes) {
    if (o.rejected) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, outcomes.size());  // the first 31 devices serve fine
}

TEST(Robustness, RattrapServesTheSameDensity) {
  Platform platform(make_config(PlatformKind::kRattrap));
  const auto outcomes =
      platform.run(dense_stream(workloads::Kind::kLinpack, 40, 1));
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.rejected);
  }
}

TEST(Robustness, TmpfsExhaustionSpillsToDiskNotFailure) {
  // A tmpfs too small for even one VirusScan payload: every request takes
  // the disk-spill path but still completes correctly.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.tmpfs_capacity_override = 64 * 1024;  // 64 KB
  Platform platform(config);
  const auto outcomes =
      platform.run(dense_stream(workloads::Kind::kVirusScan, 2, 2));
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.rejected);
    EXPECT_GT(o.response, 0);
  }
  // The spill produced real disk writes.
  EXPECT_GT(platform.server().disk().total_write_bytes(), 4u << 20);
}

TEST(Robustness, SpilledRequestsAreSlowerThanStagedOnes) {
  const auto stream = dense_stream(workloads::Kind::kVirusScan, 2, 3);
  PlatformConfig roomy = make_config(PlatformKind::kRattrap);
  PlatformConfig tiny = make_config(PlatformKind::kRattrap);
  tiny.tmpfs_capacity_override = 64 * 1024;
  double roomy_comp = 0, tiny_comp = 0;
  {
    Platform platform(roomy);
    for (const auto& o : platform.run(stream)) {
      roomy_comp += sim::to_seconds(o.phases.computation);
    }
  }
  {
    Platform platform(tiny);
    for (const auto& o : platform.run(stream)) {
      tiny_comp += sim::to_seconds(o.phases.computation);
    }
  }
  EXPECT_GT(tiny_comp, roomy_comp);
}

TEST(Robustness, ContentionSlowsComputeBeyondCoreCount) {
  // 30 simultaneous devices on 12 cores: computation must stretch
  // compared to an uncontended run of the same per-request work.
  Platform sparse(make_config(PlatformKind::kRattrap));
  const auto sparse_out =
      sparse.run(simultaneous_stream(workloads::Kind::kOcr, 2, 11));
  Platform dense(make_config(PlatformKind::kRattrap));
  const auto dense_out =
      dense.run(simultaneous_stream(workloads::Kind::kOcr, 30, 11));
  double sparse_mean = 0, dense_mean = 0;
  for (const auto& o : sparse_out) {
    sparse_mean += sim::to_seconds(o.phases.computation);
  }
  for (const auto& o : dense_out) {
    dense_mean += sim::to_seconds(o.phases.computation);
  }
  sparse_mean /= static_cast<double>(sparse_out.size());
  dense_mean /= static_cast<double>(dense_out.size());
  EXPECT_GT(dense_mean, sparse_mean * 1.2);
}

TEST(AdaptiveOffloading, AvoidsOffloadingWhenRemoteLoses) {
  // VirusScan on 3G: uploads of ~4.5 MB at 0.38 Mbps take minutes, so
  // after the exploration phase the client keeps the work local.
  PlatformConfig config =
      make_config(PlatformKind::kRattrap, net::cellular_3g());
  config.adaptive_offloading = true;
  Platform platform(config);
  // Requests are spaced out so each outcome can inform the next
  // decision (a back-to-back burst would all launch before the first
  // observation lands — and would rightly all offload).
  const auto outcomes = platform.run(dense_stream(
      workloads::Kind::kVirusScan, 1, 10, 9, 400 * sim::kSecond));
  std::size_t local_runs = 0;
  for (const auto& o : outcomes) {
    if (o.traffic.total_up() == 0) ++local_runs;
  }
  EXPECT_GT(local_runs, outcomes.size() / 2);
}

TEST(AdaptiveOffloading, KeepsOffloadingWhenRemoteWins) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.adaptive_offloading = true;
  Platform platform(config);
  const auto outcomes =
      platform.run(dense_stream(workloads::Kind::kOcr, 1, 10));
  std::size_t offloads = 0;
  for (const auto& o : outcomes) {
    if (o.traffic.total_up() > 0) ++offloads;
  }
  EXPECT_EQ(offloads, outcomes.size());  // LAN OCR always wins remotely
}

TEST(AdaptiveOffloading, ObserverSeesLocalOutcomes) {
  // Every finished request reaches the completion observer, including
  // the ones the client chose to run locally.
  PlatformConfig config =
      make_config(PlatformKind::kRattrap, net::cellular_3g());
  config.adaptive_offloading = true;
  Platform platform(config);
  std::size_t observed = 0;
  std::size_t observed_local = 0;
  platform.set_completion_observer([&](const RequestOutcome& o) {
    ++observed;
    if (o.traffic.total_up() == 0) ++observed_local;
  });
  const auto outcomes = platform.run(dense_stream(
      workloads::Kind::kVirusScan, 1, 10, 9, 400 * sim::kSecond));
  platform.set_completion_observer({});
  std::size_t local_runs = 0;
  for (const auto& o : outcomes) {
    if (o.traffic.total_up() == 0) ++local_runs;
  }
  ASSERT_GT(local_runs, 0u);
  EXPECT_EQ(observed, outcomes.size());
  EXPECT_EQ(observed_local, local_runs);
}

TEST(AdaptiveOffloading, ClosedLoopOffersEveryRequest) {
  // A device whose request ran locally issues its next one like any
  // other: the closed loop offers and accounts every requested session.
  PlatformConfig config =
      make_config(PlatformKind::kRattrap, net::cellular_3g());
  config.adaptive_offloading = true;
  Platform platform(config);
  LoadDriverConfig driver;
  driver.kind = workloads::Kind::kVirusScan;
  driver.loadgen.arrival = sim::ArrivalProcess::kClosedLoop;
  driver.loadgen.devices = 5;
  driver.loadgen.requests = 60;
  const LoadSummary summary = run_load(platform, driver);
  EXPECT_EQ(summary.offered, 60u);
  EXPECT_EQ(summary.completed + summary.rejected, summary.offered);
  EXPECT_TRUE(accounting_identity(summary));
  EXPECT_GT(platform.metrics().counter("sessions.local").value(), 0u);
}

TEST(AdaptiveOffloading, LocalRunsCostLocalEnergy) {
  PlatformConfig config =
      make_config(PlatformKind::kRattrap, net::cellular_3g());
  config.adaptive_offloading = true;
  Platform platform(config);
  const auto outcomes =
      platform.run(dense_stream(workloads::Kind::kVirusScan, 1, 8));
  for (const auto& o : outcomes) {
    if (o.traffic.total_up() == 0) {
      EXPECT_DOUBLE_EQ(o.offload_energy_mj, o.local_energy_mj);
      EXPECT_DOUBLE_EQ(o.speedup, 1.0);
    }
  }
}

}  // namespace
}  // namespace rattrap::core
