// Elastic capacity manager unit tests: the Holt forecaster and the pool
// controller (docs/ELASTIC.md).  The lifecycle state machine is covered
// by test_env_table.cpp.
#include "core/elastic/forecaster.hpp"

#include <gtest/gtest.h>

#include "core/elastic/pool_controller.hpp"
#include "sim/time.hpp"

namespace rattrap::core::elastic {
namespace {

using sim::kSecond;

// ---------------------------------------------------------------- forecaster

TEST(Forecaster, SeedsLevelFromFirstWindow) {
  Forecaster f(0.4, 0.2);
  EXPECT_FALSE(f.primed());
  for (int i = 0; i < 6; ++i) f.observe(qos::PriorityClass::kStandard);
  f.tick(2.0);  // 3 req/s window
  EXPECT_TRUE(f.primed());
  EXPECT_NEAR(f.rate(qos::PriorityClass::kStandard), 3.0, 1e-9);
}

TEST(Forecaster, TrendProjectsARampForward) {
  Forecaster f(0.5, 0.5);
  // Rate climbing 1, 2, 3, 4 req/s over unit windows.
  for (int rate = 1; rate <= 4; ++rate) {
    for (int i = 0; i < rate; ++i) f.observe(qos::PriorityClass::kStandard);
    f.tick(1.0);
  }
  const double now = f.forecast(qos::PriorityClass::kStandard, 0);
  const double ahead = f.forecast(qos::PriorityClass::kStandard, 5.0);
  EXPECT_GT(ahead, now);  // positive trend extrapolates upward
  EXPECT_GE(f.forecast(qos::PriorityClass::kStandard, 0), 0.0);
}

TEST(Forecaster, TotalSumsClasses) {
  Forecaster f(1.0, 0.0);
  f.observe(qos::PriorityClass::kInteractive);
  f.observe(qos::PriorityClass::kBatch);
  f.tick(1.0);
  EXPECT_NEAR(f.total_forecast(0), 2.0, 1e-9);
}

// ----------------------------------------------------------- pool controller

ElasticConfig predictive_config() {
  ElasticConfig config;
  config.mode = PoolMode::kPredictive;
  config.min_warm = 1;
  config.max_warm = 8;
  config.tick_s = 1.0;
  config.alpha = 1.0;  // follow the window exactly: deterministic math
  config.beta = 0.0;
  config.safety = 1.0;
  config.prewarm_horizon_s = 2.0;  // pin: no boot EWMA in the target
  config.drain_hold_ticks = 2;
  config.hysteresis = 1;
  return config;
}

TEST(PoolController, StaticModeReplenishesToTarget) {
  ElasticConfig config;
  config.mode = PoolMode::kStatic;
  config.static_target = 4;
  PoolController pc(config);
  EXPECT_EQ(pc.initial_target(0), 4u);
  const PoolDecision d = pc.tick({/*warm=*/1, /*booting=*/1, 0}, 0.5);
  EXPECT_EQ(d.target, 4u);
  EXPECT_EQ(d.prewarm, 2u);  // warm + booting count toward the pipeline
  EXPECT_EQ(d.drain, 0u);
}

TEST(PoolController, PredictiveTargetFollowsLittlesLaw) {
  PoolController pc(predictive_config());
  // 6 arrivals in a 1 s window, horizon 2 s ⇒ target = ceil(6 · 2) = 12,
  // clamped to max_warm 8.
  for (int i = 0; i < 6; ++i) {
    pc.observe_arrival(qos::PriorityClass::kStandard);
  }
  const PoolDecision d = pc.tick({0, 0, 0}, 1.0);
  EXPECT_EQ(d.target, 8u);
  EXPECT_EQ(d.prewarm, 8u);
}

TEST(PoolController, MemoryBudgetCapsTheTarget) {
  ElasticConfig config;
  config.mode = PoolMode::kStatic;
  config.static_target = 16;
  config.memory_budget_bytes = 350;
  PoolController pc(config);
  // 100 bytes per env: budget admits ⌊350/100⌋ = 3 warm containers.
  EXPECT_EQ(pc.initial_target(100), 3u);
  const PoolDecision d = pc.tick({0, 0, /*memory_per_env=*/100}, 0.5);
  EXPECT_EQ(d.target, 3u);
}

TEST(PoolController, DrainWaitsForHoldTicksAndHysteresis) {
  PoolController pc(predictive_config());  // drain_hold 2, hysteresis 1
  // No arrivals: the predictive target collapses to min_warm = 1.
  PoolDecision d = pc.tick({/*warm=*/2, 0, 0}, 1.0);
  // warm 2 ≤ target 1 + hysteresis 1: never drains.
  EXPECT_EQ(d.drain, 0u);
  d = pc.tick({/*warm=*/5, 0, 0}, 1.0);
  EXPECT_EQ(d.drain, 0u);  // over target, first hold tick
  d = pc.tick({/*warm=*/5, 0, 0}, 1.0);
  EXPECT_EQ(d.drain, 4u);  // second consecutive tick: drain to target
  // The hold counter resets after draining fires.
  d = pc.tick({/*warm=*/5, 0, 0}, 1.0);
  EXPECT_EQ(d.drain, 0u);
}

TEST(PoolController, PrewarmResetsTheDrainHold) {
  PoolController pc(predictive_config());
  PoolDecision d = pc.tick({/*warm=*/5, 0, 0}, 1.0);
  EXPECT_EQ(d.drain, 0u);  // first over-target tick
  d = pc.tick({/*warm=*/0, /*booting=*/0, 0}, 1.0);
  EXPECT_EQ(d.prewarm, 1u);  // below target: prewarm, hold resets
  d = pc.tick({/*warm=*/5, 0, 0}, 1.0);
  EXPECT_EQ(d.drain, 0u);  // counting from one again
}

TEST(PoolController, BootObservationsFeedTheEwma) {
  ElasticConfig config = predictive_config();
  config.prewarm_horizon_s = 0;  // use the learned boot time
  PoolController pc(config);
  EXPECT_NEAR(pc.boot_estimate_s(), 1.0, 1e-9);  // prior
  pc.observe_boot(3.0);
  EXPECT_NEAR(pc.boot_estimate_s(), 3.0, 1e-9);  // first sample seeds
  pc.observe_boot(1.0);
  EXPECT_NEAR(pc.boot_estimate_s(), 0.7 * 3.0 + 0.3 * 1.0, 1e-9);
  pc.observe_boot(-1.0);  // ignored
  EXPECT_NEAR(pc.boot_estimate_s(), 2.4, 1e-9);
}

}  // namespace
}  // namespace rattrap::core::elastic
