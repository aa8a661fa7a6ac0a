#include "core/elastic/pool_controller.hpp"

#include <algorithm>
#include <cmath>

namespace rattrap::core::elastic {

namespace {

std::uint32_t clamp_target(const ElasticConfig& config, double raw,
                           std::uint64_t memory_per_env) {
  double target = std::max(raw, static_cast<double>(config.min_warm));
  target = std::min(target, static_cast<double>(config.max_warm));
  if (config.memory_budget_bytes > 0 && memory_per_env > 0) {
    const double budget_cap = std::floor(
        static_cast<double>(config.memory_budget_bytes) /
        static_cast<double>(memory_per_env));
    target = std::min(target, budget_cap);
  }
  return static_cast<std::uint32_t>(std::max(0.0, target));
}

}  // namespace

std::uint32_t initial_target(const ElasticConfig& config,
                             std::uint64_t memory_per_env) {
  const double raw = config.mode == PoolMode::kPredictive
                         ? static_cast<double>(config.min_warm)
                         : static_cast<double>(config.static_target);
  return clamp_target(config, raw, memory_per_env);
}

void PoolController::observe_boot(double seconds) {
  if (seconds <= 0) return;
  boot_ewma_s_ =
      boot_seen_ ? 0.7 * boot_ewma_s_ + 0.3 * seconds : seconds;
  boot_seen_ = true;
}

PoolDecision PoolController::tick(const PoolSnapshot& snapshot,
                                  double window_s) {
  forecaster_.tick(window_s);

  double raw;
  if (config_.mode == PoolMode::kStatic) {
    raw = static_cast<double>(config_.static_target);
  } else {
    const double horizon = config_.prewarm_horizon_s > 0
                               ? config_.prewarm_horizon_s
                               : boot_ewma_s_;
    // Little's law: arrivals expected during one boot time is the warm
    // capacity that keeps a cold start off the critical path.
    raw = std::ceil(forecaster_.total_forecast(horizon) * horizon *
                    config_.safety);
  }

  PoolDecision decision;
  decision.target = clamp_target(config_, raw, snapshot.memory_per_env);
  const std::size_t pipeline = snapshot.warm + snapshot.booting;
  if (pipeline < decision.target) {
    decision.prewarm =
        static_cast<std::uint32_t>(decision.target - pipeline);
    over_ticks_ = 0;
  } else if (snapshot.warm >
             static_cast<std::size_t>(decision.target) +
                 config_.hysteresis) {
    if (++over_ticks_ >= std::max(1u, config_.drain_hold_ticks)) {
      decision.drain = static_cast<std::uint32_t>(
          snapshot.warm - decision.target);
      over_ticks_ = 0;
    }
  } else {
    over_ticks_ = 0;
  }
  return decision;
}

}  // namespace rattrap::core::elastic
