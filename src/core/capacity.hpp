// Capacity: the environment half of the platform — the Container DB and
// the provisioning side of the Monitor & Scheduler (§IV-A).
//
// It owns every environment from provisioning to erase: the EnvTable, the
// CAC template and the LayerStore that pins its lower layers, the
// warm-pool controller and its tick, and the env.* / elastic.*
// instruments.  The session side reaches it through three operations:
//
//   acquire  the dispatcher's pick while it still leases, else a
//            warm-pool claim, else a fresh environment; pinned.
//   release  unpins; the last session out idles the environment,
//            finishes its drain or erases a dead record.
//   crash    tears the environment down, runs the platform's session
//            sweep, notifies the Monitor and erases the record once no
//            session is bound.
//
// Idle reclaim, drain, prewarm and retire follow from these and from the
// elastic tick (docs/ELASTIC.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "container/registry.hpp"
#include "core/cac.hpp"
#include "core/elastic/pool_controller.hpp"
#include "core/env_table.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"

namespace rattrap::core {

struct PlatformConfig;

/// Table I row: what provisioning one runtime environment costs.
struct ProvisionStats {
  sim::SimDuration setup_time = 0;   ///< boot → connected to Dispatcher
  std::uint64_t memory_configured = 0;  ///< allocation (512/128/96 MB)
  std::uint64_t memory_usage = 0;    ///< measured resident peak
  std::uint64_t disk_bytes = 0;      ///< per-environment disk footprint
  std::uint64_t shared_disk_bytes = 0;  ///< amortized shared layer (once)
};

class Capacity {
 public:
  /// The platform's session sweep, run by crash().
  using CrashSweep = std::function<void(const EnvRecord&)>;

  /// `live_sessions` is the platform's count of sessions in flight: the
  /// elastic tick keeps ticking only while it is nonzero.
  Capacity(const PlatformConfig& config, CloudServer& server,
           obs::MetricsRegistry& metrics, obs::TraceRecorder& trace,
           const std::size_t& live_sessions, CrashSweep crash_sweep);

  [[nodiscard]] const EnvTable& table() const { return table_; }

  /// acquire: `on_target(fresh, from_pool)` runs once the choice is made
  /// and before a fresh environment starts, so what its start fires lands
  /// in the caller's span; `resume` runs when a booting one turns ready
  /// or fails.  A pool claim is rebound to `key`, as is a fresh one.
  template <typename OnTarget, typename Resume>
  EnvRecord& acquire(EnvId picked, EnvKey key, OnTarget&& on_target,
                     Resume&& resume) {
    const Claim claim = claim_for(picked, key);
    on_target(claim.env == nullptr || !claim.env->ready(), claim.from_pool);
    EnvRecord& env = pin(claim.env != nullptr ? *claim.env : provision(key));
    if (!env.ready()) env.waiters.emplace_back(std::forward<Resume>(resume));
    return env;
  }
  void release(EnvRecord& env);
  void crash(EnvId id);  ///< a no-op unless `id` is live

  /// A run starts: boots the initial warm pool on a fresh platform and
  /// arms the elastic tick.
  void begin_run();
  /// An offloaded arrival: feeds the forecaster and re-arms the tick.
  void observe_arrival(qos::PriorityClass klass);
  /// Schedules the plan's one-shot (at=) crash rules, each against a
  /// ready environment — one with sessions in flight if there is one.
  void arm_crash_pump(sim::FaultInjector& faults);
  /// A bound session starts work: a warm hit, or a cold boot if `fresh`.
  void count_start(bool fresh);

  /// Platform::measure_provision.
  ProvisionStats measure_provision();

  /// Committed environment memory integrated over simulated time so far
  /// (byte·seconds): the resource cost a warm pool pays (§III-B).
  [[nodiscard]] double memory_time_byte_seconds() const {
    return table_.memory_byte_seconds(server_.simulator().now());
  }
  /// Warm-idle memory integrated likewise: the idle-capacity cost.
  [[nodiscard]] double idle_byte_seconds() const {
    return table_.idle_byte_seconds(server_.simulator().now());
  }
  /// Warm-idle pool environments available for immediate lease.
  [[nodiscard]] std::uint32_t warm_idle_count() const {
    return static_cast<std::uint32_t>(
        table_.pooled_count(EnvState::kWarmIdle));
  }
  /// Drains up to `count` warm-idle pool environments, newest first;
  /// returns how many drains began.
  std::uint32_t elastic_retire_warm(std::uint32_t count);
  /// The elastic memory budget in bytes (0: none, or no controller).
  [[nodiscard]] std::uint64_t memory_budget() const {
    return pool_ != nullptr ? pool_->config().memory_budget_bytes : 0;
  }
  /// Every lower layer the CACs stack on, pinned by digest, so the shared
  /// base survives any one environment's drain (docs/ELASTIC.md).
  [[nodiscard]] const container::LayerStore& layer_store() const {
    return layer_store_;
  }

 private:
  // Only these write the table directly: the Dispatcher and the oracle's
  // touch list are wired to it, and tests plant states through it.
  friend class Platform;
  friend class InvariantOracle;
  friend struct PlatformTestPeer;
  [[nodiscard]] EnvTable& table() { return table_; }

  struct Claim {
    EnvRecord* env = nullptr;  ///< nullptr: provision a fresh one
    bool from_pool = false;
  };
  Claim claim_for(EnvId picked, EnvKey key);
  EnvRecord& pin(EnvRecord& env);
  EnvRecord& provision(EnvKey key);
  /// Start the VM / container; false when provisioning failed.
  bool provision_vm(EnvRecord& env);
  bool provision_cac(EnvRecord& env);
  /// Built, and its lower layers pinned, on first use.
  const CacTemplate& cac_template();
  /// What a continuation's captured id resolves to: the record while it
  /// is held and live, else nullptr.
  [[nodiscard]] EnvRecord* live_env(EnvId id) {
    EnvRecord* env = table_.find(id);
    return env != nullptr && env->live() ? env : nullptr;
  }
  void env_ready(EnvRecord& env);
  void schedule_reclaim(EnvRecord& env);
  /// Stops an environment for good — shutdown, or a crash when `crashed`.
  void teardown(EnvRecord& env, bool crashed);
  /// Erases a reclaimed record no session is bound to.
  void prune(EnvRecord& env) {
    if (!env.live() && env.inflight == 0) table_.erase(env.id);
  }
  void begin_drain(EnvRecord& env);
  void finish_drain(EnvRecord& env);
  void prewarm_env();
  /// Boots up to `count` pool environments within the memory budget;
  /// returns how many were started.
  std::uint32_t elastic_prewarm(std::uint32_t count);
  void elastic_tick();
  void arm_elastic_tick();
  [[nodiscard]] std::uint64_t default_env_memory() const;

  const PlatformConfig& config_;
  CloudServer& server_;
  obs::MetricsRegistry& metrics_;
  const std::size_t& live_sessions_;
  CrashSweep crash_sweep_;
  /// After server_: a CAC hands its container back when destroyed.
  EnvTable table_;
  std::unique_ptr<elastic::PoolController> pool_;  ///< nullptr: disabled
  container::LayerStore layer_store_;
  /// The booted image every CAC is cloned from (the profile is fixed by
  /// the config).  Destroyed before table_: a CAC's teardown does not
  /// read it.
  std::optional<CacTemplate> cac_template_;
  std::uint32_t pool_seq_ = 0;  ///< keys pool:<n> environments
  bool tick_armed_ = false;
  // Instruments, created on first use so a run exports only those it
  // touched.
  obs::Counter* warm_hits_ = nullptr;
  obs::Counter* cold_boots_ = nullptr;
  obs::Gauge* warm_hit_ratio_ = nullptr;
  obs::Histogram* prewarm_lead_ms_ = nullptr;
  obs::Gauge* target_ = nullptr;
  obs::Gauge* forecast_rate_ = nullptr;
  obs::Gauge* idle_gauge_ = nullptr;
  obs::Counter* provisioned_ = nullptr;
  obs::Histogram* provision_ms_ = nullptr;
  obs::Counter* drained_ = nullptr;
  obs::Counter* reclaimed_private_bytes_ = nullptr;
};

}  // namespace rattrap::core
