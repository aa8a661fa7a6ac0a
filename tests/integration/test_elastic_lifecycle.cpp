// Elastic lifecycle integration (docs/ELASTIC.md): drain-based
// scale-down against the full platform, including the edge cases the
// state machine exists for — a drain racing an in-flight boot, a drain
// overlapping a crashing session, double-drain idempotence — plus the
// Monitor live-load staleness regression.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/platform.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {


std::vector<workloads::OffloadRequest> small_stream(
    std::size_t count, std::uint32_t devices = 4, std::uint64_t seed = 31) {
  workloads::StreamConfig config;
  config.kind = workloads::Kind::kLinpack;
  config.count = count;
  config.devices = devices;
  config.mean_gap = 2 * sim::kSecond;
  config.size_class = 2;
  config.seed = seed;
  return workloads::make_stream(config);
}

PlatformConfig elastic_config(elastic::PoolMode mode,
                              std::uint32_t target = 2) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.elastic.mode = mode;
  config.elastic.static_target = target;
  config.force_invariants = true;  // lifecycle invariants on every event
  return config;
}

TEST(ElasticLifecycle, DrainRacesInFlightBoot) {
  // Drain the first environment while its boot is still in flight: the
  // bound session must still complete on it, and only then may the
  // reclaim finish.
  Platform platform(elastic_config(elastic::PoolMode::kDisabled, 0));
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  for (const auto& request : small_stream(1)) session->submit(request);

  // Probe on a fine grid and drain at the first instant the boot is
  // observably in flight — robust to calibration changes in connection
  // setup or boot time.
  bool drained_while_booting = false;
  for (int i = 0; i < 100; ++i) {
    platform.server().simulator().schedule_at(
        i * (sim::kSecond / 10), [&platform, &drained_while_booting]() {
          const EnvRecord* env = platform.env_table().find(1);
          if (!drained_while_booting && env != nullptr &&
              env->state() == EnvState::kBooting) {
            drained_while_booting = platform.drain_env(1);
          }
        });
  }
  const auto outcomes = session->close();

  ASSERT_TRUE(drained_while_booting)
      << "env 1 was never observed booting; retune the probe grid";
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].stranded);
  EXPECT_GT(outcomes[0].response, 0);
  // Reclaimed once the session ended, env 1 left the table.
  EXPECT_EQ(platform.env_table().find(1), nullptr);
  EXPECT_EQ(platform.env_table().count(EnvState::kReclaimed), 1u);
  EXPECT_TRUE(platform.env_table().first_error().empty())
      << platform.env_table().first_error();
}

TEST(ElasticLifecycle, DrainWithSessionFaultingMidRun) {
  // A one-shot container crash lands while the elastic pool is live:
  // crash recovery re-dispatches, the crashed container is reclaimed
  // (never left draining), and every lifecycle edge stays legal.
  PlatformConfig config = elastic_config(elastic::PoolMode::kStatic, 2);
  const auto plan = sim::FaultPlan::parse("container.crash:at=4");
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;
  Platform platform(std::move(config));

  const auto outcomes = platform.run(small_stream(8));
  ASSERT_EQ(outcomes.size(), 8u);
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.stranded)
        << "request " << outcome.request.sequence;
    EXPECT_GT(outcome.response, 0);
  }
  EXPECT_TRUE(platform.env_table().first_error().empty())
      << platform.env_table().first_error();
  const obs::Counter* crashes =
      platform.metrics().find_counter("faults.fired.container.crash");
  ASSERT_NE(crashes, nullptr);
  EXPECT_GE(crashes->value(), 1u);
  EXPECT_EQ(platform.env_table().count(EnvState::kDraining), 0u);
}

TEST(ElasticLifecycle, DoubleDrainIsIdempotent) {
  Platform platform(elastic_config(elastic::PoolMode::kStatic, 1));
  Result<Session> session = platform.open_session();  // prewarms env 1
  ASSERT_TRUE(session.ok());
  bool first = false;
  bool second = false;
  platform.server().simulator().schedule_at(
      2 * sim::kSecond, [&platform, &first, &second]() {
        first = platform.drain_env(1);
        second = platform.drain_env(1);  // already draining or reclaimed
      });
  for (const auto& request : small_stream(2)) session->submit(request);
  (void)session->close();

  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  // Reclaimed with nothing bound, env 1 left the table.
  EXPECT_EQ(platform.env_table().find(1), nullptr);
  EXPECT_TRUE(platform.env_table().first_error().empty())
      << platform.env_table().first_error();
  // The drain counter saw exactly one begin_drain for env 1; the only
  // other drains are the idle reclaims of the session envs.
  const obs::Counter* drained =
      platform.metrics().find_counter("elastic.drained");
  ASSERT_NE(drained, nullptr);
  EXPECT_GE(drained->value(), 1u);
  EXPECT_EQ(platform.env_table().transitions_into(EnvState::kDraining),
            drained->value());
}

TEST(ElasticLifecycle, MonitorLoadSignalNotStaleAcrossReclaim) {
  // Regression: the Monitor's live-environment count must drop on every
  // teardown path.  Before the fix it only ever grew, so a platform whose
  // warm capacity had been reclaimed kept advertising it on the
  // monitor.active_envs gauge.
  PlatformConfig config = elastic_config(elastic::PoolMode::kDisabled, 0);
  config.env_idle_timeout = 2 * sim::kSecond;
  Platform platform(std::move(config));

  const auto outcomes = platform.run(small_stream(4));
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_GT(platform.env_table().transitions_into(EnvState::kReclaimed),
            0u);
  // Every environment is torn down by the post-run idle reclaim; the
  // monitor's live count must have followed it to zero.
  EXPECT_EQ(platform.server().monitor().active_envs(), 0u);
  const obs::Gauge* gauge =
      platform.metrics().find_gauge("monitor.active_envs");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value(), 0.0);
}

TEST(ElasticLifecycle, PredictivePoolServesWarmHits) {
  // End-to-end sanity for the predictive loop: arrivals feed the
  // forecaster, the controller prewarms, later requests claim warm
  // containers instead of cold-booting.
  PlatformConfig config = elastic_config(elastic::PoolMode::kPredictive);
  config.elastic.min_warm = 2;
  config.elastic.max_warm = 8;
  Platform platform(std::move(config));

  const auto outcomes = platform.run(small_stream(10, /*devices=*/10));
  ASSERT_EQ(outcomes.size(), 10u);
  const obs::Counter* warm =
      platform.metrics().find_counter("elastic.warm_hits");
  ASSERT_NE(warm, nullptr);
  EXPECT_GT(warm->value(), 0u);
  const obs::Counter* prewarmed =
      platform.metrics().find_counter("elastic.prewarmed");
  ASSERT_NE(prewarmed, nullptr);
  EXPECT_GT(prewarmed->value(), 0u);
  EXPECT_TRUE(platform.env_table().first_error().empty())
      << platform.env_table().first_error();
}

}  // namespace
}  // namespace rattrap::core
