// Warm-pool controller: sizes the shard's warm-idle capacity
// (docs/ELASTIC.md).
//
// Each elastic tick the engine hands the controller a snapshot of the
// lifecycle populations; the controller answers with how many containers
// to prewarm or drain toward its target.  Two policies share the code
// path, and a third mode runs no controller at all:
//
//   kDisabled    no ticks: static_target containers are booted at reset
//                and never replenished — the §III-B fixed warm pool.
//   kStatic      target = static_target, always.  This is the §III-B
//                warm pool — but *replenishing*: a claimed container is
//                replaced on the next tick, which is what a fixed-size
//                pool means at cluster scale.  It doubles as the
//                forecast=off ablation arm.
//   kPredictive  target = ⌈forecast(boot) · boot · safety⌉ — enough
//                warm capacity to absorb the arrivals expected during
//                one boot time, per Little's law, with a safety margin.
//                The boot time is a learned EWMA unless pinned by
//                prewarm_horizon_s.
//
// Both targets are clamped to [min_warm, max_warm] and to the memory
// budget (budget / bytes-per-container); the budget clamp is what the
// warm-pool memory-budget invariant verifies end to end.  Scale-down is
// hysteretic: the pool must sit above target + hysteresis for
// drain_hold_ticks consecutive ticks before anything drains, so a
// one-tick lull never churns capacity.
#pragma once

#include <cstdint>

#include "core/elastic/forecaster.hpp"
#include "core/qos/qos.hpp"

namespace rattrap::core::elastic {

enum class PoolMode : std::uint8_t {
  kDisabled = 0,   ///< no controller: static_target booted once at reset
  kStatic = 1,     ///< fixed replenishing target (forecast off)
  kPredictive = 2, ///< Holt forecast drives the target
};

/// Elastic capacity knobs, carried on PlatformConfig (docs/ELASTIC.md).
struct ElasticConfig {
  PoolMode mode = PoolMode::kDisabled;

  /// Warm-idle target for kStatic and kDisabled (the pool booted at
  /// reset; only kStatic replenishes it).
  std::uint32_t static_target = 0;

  /// Target clamp; min_warm also seeds the predictive pool at reset.
  std::uint32_t min_warm = 0;
  std::uint32_t max_warm = 64;

  /// Committed-memory ceiling for the warm-idle pool, in bytes; the
  /// target never exceeds budget / bytes-per-container.  0 = unlimited.
  std::uint64_t memory_budget_bytes = 0;

  /// Controller cadence on the event queue.
  double tick_s = 0.5;

  /// Holt smoothing coefficients (level / trend).
  double alpha = 0.4;
  double beta = 0.2;

  /// Demand multiplier on the predictive target.
  double safety = 1.3;

  /// Prewarm look-ahead in seconds; 0 uses the learned boot-time EWMA.
  double prewarm_horizon_s = 0;

  /// Consecutive over-target ticks before draining starts, and the
  /// surplus tolerated without counting as over-target.
  std::uint32_t drain_hold_ticks = 3;
  std::uint32_t hysteresis = 1;
};

/// The warm target to provision before any traffic has been seen
/// (reset time): min_warm for kPredictive, static_target otherwise, both
/// through the same [min_warm, max_warm] and memory-budget clamp as a
/// controller tick.
[[nodiscard]] std::uint32_t initial_target(const ElasticConfig& config,
                                           std::uint64_t memory_per_env);

/// Lifecycle populations the controller decides on (one shard).
struct PoolSnapshot {
  std::size_t warm = 0;      ///< warm-idle, unleased pool containers
  std::size_t booting = 0;   ///< prewarm boots already in flight
  std::uint64_t memory_per_env = 0;  ///< committed bytes per container
};

struct PoolDecision {
  std::uint32_t prewarm = 0;  ///< containers to start booting now
  std::uint32_t drain = 0;    ///< warm containers to start draining now
  std::uint32_t target = 0;   ///< the clamped warm-idle target
};

class PoolController {
 public:
  explicit PoolController(const ElasticConfig& config)
      : config_(config), forecaster_(config.alpha, config.beta) {}

  /// Feeds one arrival into the forecaster (called from the engine's
  /// arrival path; the class split lets later policies weight lanes).
  void observe_arrival(qos::PriorityClass klass) {
    forecaster_.observe(klass);
  }

  /// Feeds one measured boot duration into the prewarm-horizon EWMA.
  void observe_boot(double seconds);

  /// One controller step: folds the tick window into the forecaster and
  /// returns the prewarm/drain decision for this snapshot.
  PoolDecision tick(const PoolSnapshot& snapshot, double window_s);

  [[nodiscard]] double forecast_rate() const {
    return forecaster_.total_forecast(0);
  }
  [[nodiscard]] double boot_estimate_s() const { return boot_ewma_s_; }
  [[nodiscard]] const ElasticConfig& config() const { return config_; }

 private:
  ElasticConfig config_;
  Forecaster forecaster_;
  double boot_ewma_s_ = 1.0;  ///< prior until the first boot lands
  bool boot_seen_ = false;
  std::uint32_t over_ticks_ = 0;
};

}  // namespace rattrap::core::elastic
