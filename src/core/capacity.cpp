#include "core/capacity.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "android/image_profile.hpp"
#include "core/platform.hpp"

namespace rattrap::core {

Capacity::Capacity(const PlatformConfig& config, CloudServer& server,
                   obs::MetricsRegistry& metrics, obs::TraceRecorder& trace,
                   const std::size_t& live_sessions, CrashSweep crash_sweep)
    : config_(config),
      server_(server),
      metrics_(metrics),
      live_sessions_(live_sessions),
      crash_sweep_(std::move(crash_sweep)) {
  table_.set_metrics(&metrics);
  table_.set_trace(&trace);
  if (config.elastic.mode != elastic::PoolMode::kDisabled) {
    pool_ = std::make_unique<elastic::PoolController>(config.elastic);
  }
}

Capacity::Claim Capacity::claim_for(EnvId picked, EnvKey key) {
  // The pick (0: none) may have drained, or left the table, meanwhile.
  EnvRecord* target = table_.find(picked);
  if (target != nullptr && target->leasable()) return {target, false};
  // A warm-pool environment (pre-booted, unclaimed) is rebound to this
  // device instead of paying a cold start; the lowest id wins.  Draining
  // capacity left the pool the moment its drain began.
  const std::optional<EnvId> claimed = table_.claim_pool();
  if (!claimed) return {};
  target = table_.find(*claimed);
  if (target->ready()) {
    // Prewarm lead time: how far ahead of demand the controller had this
    // environment standing warm.
    metrics_.resolve(prewarm_lead_ms_, "elastic.prewarm.lead_ms")
        .observe(sim::to_millis(server_.simulator().now() - target->ready_at));
  }
  table_.rebind(*claimed, key);
  return {target, true};
}

EnvRecord& Capacity::pin(EnvRecord& env) {
  ++env.inflight;  // pins the env against idle reclamation
  if (env.ready() && env.inflight == 1) {
    table_.transition(env.id, EnvState::kLeased, server_.simulator().now());
  }
  return env;
}

void Capacity::release(EnvRecord& env) {
  if (env.inflight > 0) --env.inflight;
  if (!env.live()) {
    prune(env);  // the last session left a crashed or failed env
  } else if (env.ready() && env.inflight == 0) {
    if (env.state() == EnvState::kDraining) {
      finish_drain(env);
    } else {
      table_.transition(env.id, EnvState::kWarmIdle,
                        server_.simulator().now());
      schedule_reclaim(env);
    }
  }
}

void Capacity::crash(EnvId id) {
  EnvRecord* env = live_env(id);
  if (env == nullptr) return;
  metrics_.counter("env.crashes").inc();
  teardown(*env, /*crashed=*/true);
  crash_sweep_(*env);
  server_.monitor().notify_crash(id);
  prune(*env);
}

void Capacity::count_start(bool fresh) {
  if (warm_hits_ == nullptr) {
    warm_hits_ = &metrics_.counter("elastic.warm_hits");
    cold_boots_ = &metrics_.counter("elastic.cold_boots");
    warm_hit_ratio_ = &metrics_.gauge("elastic.warm_hit_ratio");
  }
  (fresh ? cold_boots_ : warm_hits_)->inc();
  const double hits = static_cast<double>(warm_hits_->value());
  const double cold = static_cast<double>(cold_boots_->value());
  warm_hit_ratio_->set(hits / std::max(1.0, hits + cold));
}

// ---------------------------------------------------------------------
// Provisioning

EnvRecord& Capacity::provision(EnvKey key) {
  const sim::SimTime now = server_.simulator().now();
  EnvRecord& env = table_.add(
      config_.container_backing ? EnvBacking::kContainer : EnvBacking::kVm,
      key, now);
  const bool started = env.is_vm() ? provision_vm(env) : provision_cac(env);
  if (!started) {
    // Dead on arrival — the VM density wall of a 512 MB-per-VM resource
    // model on a 16 GB server, a missing kernel feature, a cgroup memory
    // limit or an injected device-namespace teardown.  Every waiting
    // session is answered with a rejection; the last one to unbind, or
    // this run when none waits, erases the record.
    metrics_.counter("env.provision_failed").inc();
    env.failed = true;
    env.memory_bytes = 0;
    env.cac.reset();  // hands a half-started container back
    server_.simulator().schedule_in(0, [this, id = env.id]() {
      if (EnvRecord* failed = table_.find(id)) {
        for (auto& waiter : std::exchange(failed->waiters, {})) waiter();
      }
      if (EnvRecord* failed = table_.find(id)) prune(*failed);
    });
  }
  table_.transition(env.id, EnvState::kBooting, now);
  if (!started) table_.transition(env.id, EnvState::kReclaimed, now);
  return env;
}

bool Capacity::provision_vm(EnvRecord& env) {
  const Calibration& cal = server_.calibration();
  vm::VmConfig vc;
  vc.name = "android-vm-" + std::to_string(env.id);
  vc.vcpus = 1;
  vc.memory = cal.vm_memory;
  vc.disk_image = android::stock_layer()->total_bytes();
  vc.cpu_factor = cal.vm_cpu_factor;
  vc.io_factor = cal.vm_io_factor;
  vm::VirtualMachine* machine = server_.hypervisor().create(vc);
  if (machine == nullptr) return false;  // host memory exhausted
  env.vm_id = machine->id();
  env.disk_bytes = vc.disk_image;
  env.memory_bytes = vc.memory;

  const sim::SimTime boot_start = server_.simulator().now();
  server_.hypervisor().boot(
      env.vm_id, android::vm_boot_plan(android::OsProfile::kStock),
      [this, id = env.id, boot_start](sim::SimTime booted_at) {
        // Boot keeps roughly one guest vCPU busy end to end.
        server_.monitor().record_cpu(boot_start, booted_at, 0.85);
        server_.simulator().schedule_in(
            server_.calibration().env_register_cost, [this, id]() {
              if (EnvRecord* env = live_env(id)) env_ready(*env);
            });
      });
  return true;
}

const CacTemplate& Capacity::cac_template() {
  if (cac_template_) return *cac_template_;
  CacConfig cc;
  cc.profile = config_.customized_os ? android::OsProfile::kCustomized
                                     : android::OsProfile::kStock;
  if (config_.shared_resource_layer) {
    cc.lower_layers = {server_.shared_layer().system_layer()};
  } else {
    // Private full image copy per container (the W/O configuration).
    cc.lower_layers = {config_.customized_os
                           ? android::customized_layer()
                           : android::container_stock_layer()};
  }
  cc.memory_limit = config_.customized_os
                        ? server_.calibration().cac_opt_memory
                        : server_.calibration().cac_plain_memory;
  cac_template_.emplace(cc, server_.containers(), server_.driver());
  // Pin the lower layers by content digest: deduplicated across every
  // CAC, and held here so the shared base outlives any one container's
  // drain (only the private top layer is reclaimed).
  for (const auto& layer : cc.lower_layers) {
    layer_store_.add(container::layer_digest(*layer), layer);
  }
  metrics_.gauge("elastic.layers.pinned_bytes")
      .set(static_cast<double>(layer_store_.stored_bytes()));
  return *cac_template_;
}

bool Capacity::provision_cac(EnvRecord& env) {
  const CacTemplate& tmpl = cac_template();
  // A later CAC finds the shared layer page-cached by the first boot.
  const bool warm = config_.shared_resource_layer && table_.size() > 1;
  env.cac = std::make_unique<CloudAndroidContainer>(
      tmpl, "cac-" + std::to_string(env.id), warm, server_.containers(),
      server_.driver());
  env.memory_bytes = tmpl.container->memory_limit;

  const auto start_cost = env.cac->start_container(server_.kernel());
  if (!start_cost.has_value()) return false;
  const android::UserspaceBoot& boot = env.cac->userspace_boot();

  // Per-environment disk: a private image copy without the shared layer,
  // or just the COW delta (seeded at finish_boot) with it.
  env.disk_bytes = config_.shared_resource_layer
                       ? 0  // updated after finish_boot
                       : tmpl.container->lower_layers.front()->total_bytes();

  // The boot continuations bail once the environment is torn down:
  // teardown frees the CAC.
  sim::Simulator& simulator = server_.simulator();
  const sim::SimTime cpu_start = simulator.now() + *start_cost;
  auto after_io = [this, id = env.id, cpu = boot.cpu_total(), cpu_start]() {
    if (live_env(id) == nullptr) return;
    const sim::SimTime now = server_.simulator().now();
    const sim::SimTime cpu_done = now + cpu;
    server_.monitor().record_cpu(std::max(cpu_start, now), cpu_done, 0.9);
    server_.simulator().schedule_at(cpu_done, [this, id]() {
      EnvRecord* env = live_env(id);
      if (env == nullptr) return;
      env->cac->finish_boot(server_.simulator().now());
      if (config_.shared_resource_layer) {
        env->disk_bytes = env->cac->private_disk_bytes();
      }
      server_.simulator().schedule_in(
          server_.calibration().env_register_cost, [this, id]() {
            if (EnvRecord* env = live_env(id)) env_ready(*env);
          });
    });
  };

  simulator.schedule_at(cpu_start,
                        [this, disk_read = boot.disk_read_bytes, after_io]() {
    if (disk_read == 0) return after_io();
    server_.disk().submit(fs::IoKind::kRead, disk_read,
                          /*sequential=*/true, after_io);
  });
  return true;
}

void Capacity::env_ready(EnvRecord& env) {
  env.ready_at = server_.simulator().now();
  env.busy_until = env.ready_at;
  // A draining env turns ready with no transition.
  table_.touch(env.id);
  metrics_.resolve(provisioned_, "env.provisioned").inc();
  metrics_.resolve(provision_ms_, "env.provision_ms")
      .observe(sim::to_millis(env.ready_at - env.provisioned_at));
  server_.monitor().env_up();
  if (pool_ != nullptr) {
    pool_->observe_boot(sim::to_seconds(env.ready_at - env.provisioned_at));
  }
  // A drain begun mid-boot already moved the record to draining.
  const bool draining = env.state() == EnvState::kDraining;
  if (!draining) {
    table_.transition(
        env.id, env.inflight > 0 ? EnvState::kLeased : EnvState::kWarmIdle,
        env.ready_at);
  }
  // Resumes the sessions waiting for the boot; none ends, as it succeeded.
  for (auto& waiter : std::exchange(env.waiters, {})) waiter();
  if (draining) {
    if (env.inflight == 0) finish_drain(env);
    return;
  }
  schedule_reclaim(env);
}

void Capacity::schedule_reclaim(EnvRecord& env) {
  // A probe environment (measure_provision) is never reclaimed.
  if (config_.env_idle_timeout <= 0 || env.key() == EnvKey::probe()) return;
  const std::uint64_t epoch = env.jobs_served;
  server_.simulator().schedule_in(
      config_.env_idle_timeout, [this, id = env.id, epoch]() {
        EnvRecord* env = live_env(id);
        if (env == nullptr || !env->ready()) return;
        if (table_.pooled(id)) return;          // waiting warm
        if (env->jobs_served != epoch) return;  // work arrived since
        if (env->inflight > 0) return;          // sessions in progress
        if (env->busy_until > server_.simulator().now()) return;
        begin_drain(*env);
      });
}

void Capacity::teardown(EnvRecord& env, bool crashed) {
  assert(env.ready_at >= 0 && "only a booted env was counted up");
  server_.monitor().env_down();
  table_.transition(env.id, EnvState::kReclaimed, server_.simulator().now());
  server_.warehouse().forget_env(env.id);
  if (env.is_vm()) {
    server_.hypervisor().destroy(env.vm_id);
  } else if (env.cac && crashed) {
    env.cac->crash(server_.kernel());
  } else if (env.cac) {
    env.cac->shutdown(server_.kernel());
  }
  env.cac.reset();
}

ProvisionStats Capacity::measure_provision() {
  assert(table_.size() == 0 && "measure_provision needs a fresh platform");
  sim::Simulator& simulator = server_.simulator();
  const EnvId id = provision(EnvKey::probe()).id;
  simulator.run();
  const EnvRecord* env = table_.find(id);
  if (env == nullptr) return {};  // the provision failed
  assert(env->ready());

  ProvisionStats stats;
  stats.setup_time = env->ready_at - env->provisioned_at;
  const Calibration& cal = server_.calibration();
  if (env->is_vm()) {
    stats.memory_configured = cal.vm_memory;
    stats.memory_usage =
        android::device_userspace_boot(android::OsProfile::kStock)
            .boot_memory;
  } else {
    stats.memory_configured = config_.customized_os ? cal.cac_opt_memory
                                                    : cal.cac_plain_memory;
    stats.memory_usage = env->cac->boot_memory();
  }
  stats.disk_bytes = env->disk_bytes;
  stats.shared_disk_bytes = config_.shared_resource_layer
                                ? server_.shared_layer().shared_bytes()
                                : 0;
  return stats;
}

// ---------------------------------------------------------------------
// Elastic capacity machinery (docs/ELASTIC.md)

void Capacity::begin_drain(EnvRecord& env) {
  if (!env.leasable()) return;  // already draining or reclaimed
  metrics_.resolve(drained_, "elastic.drained").inc();
  // Leaves the warm pool and the key index for good: the dispatcher never
  // routes new work here; in-flight sessions keep their binding.
  table_.transition(env.id, EnvState::kDraining, server_.simulator().now());
  if (env.ready() && env.inflight == 0) finish_drain(env);
}

void Capacity::finish_drain(EnvRecord& env) {
  if (!env.is_vm() && env.cac != nullptr) {
    // Reclaim the private COW layer; shared lower layers stay for the
    // environments still referencing them.
    const std::uint64_t freed = env.cac->reclaim_private_layer();
    if (freed > 0) {
      metrics_
          .resolve(reclaimed_private_bytes_, "elastic.reclaimed.private_bytes")
          .inc(freed);
    }
  }
  teardown(env, /*crashed=*/false);
  prune(env);
}

void Capacity::prewarm_env() {
  table_.add_to_pool(provision(EnvKey::pool(pool_seq_++)).id);
  metrics_.counter("elastic.prewarmed").inc();
}

std::uint64_t Capacity::default_env_memory() const {
  const Calibration& cal = server_.calibration();
  if (!config_.container_backing) return cal.vm_memory;
  return config_.customized_os ? cal.cac_opt_memory : cal.cac_plain_memory;
}

void Capacity::begin_run() {
  if (table_.size() == 0) {
    const std::uint32_t initial =
        elastic::initial_target(config_.elastic, default_env_memory());
    for (std::uint32_t i = 0; i < initial; ++i) prewarm_env();
  }
  arm_elastic_tick();
}

void Capacity::observe_arrival(qos::PriorityClass klass) {
  if (pool_ == nullptr) return;
  // Offloaded arrivals feed the forecaster; locally served requests never
  // need warm capacity.
  pool_->observe_arrival(klass);
  arm_elastic_tick();
}

std::uint32_t Capacity::elastic_prewarm(std::uint32_t count) {
  if (count == 0) return 0;
  // Honor the memory budget against the whole pool pipeline (booting
  // included) so a prewarm burst cannot overshoot it either.
  const std::uint64_t budget = memory_budget();
  const std::uint64_t mem = default_env_memory();
  if (budget > 0 && mem > 0) {
    const std::uint64_t committed = table_.pool_bytes();
    const std::uint64_t room = budget > committed ? budget - committed : 0;
    count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count, room / mem));
  }
  for (std::uint32_t i = 0; i < count; ++i) prewarm_env();
  return count;
}

std::uint32_t Capacity::elastic_retire_warm(std::uint32_t count) {
  // Newest-first: the longest-warm environments (page caches hottest)
  // survive; deterministic because env ids are allocation-ordered.
  // Collected first: begin_drain() takes each one out of the pool.
  std::vector<EnvId> victims;
  const std::set<EnvId>& pool = table_.pool();
  for (auto it = pool.rbegin(); it != pool.rend() && victims.size() < count;
       ++it) {
    if (table_.find(*it)->state() == EnvState::kWarmIdle) {
      victims.push_back(*it);
    }
  }
  for (const EnvId id : victims) begin_drain(*table_.find(id));
  return static_cast<std::uint32_t>(victims.size());
}

void Capacity::arm_elastic_tick() {
  if (pool_ == nullptr || tick_armed_) return;
  tick_armed_ = true;
  server_.simulator().schedule_in(sim::from_seconds(pool_->config().tick_s),
                                  [this]() { elastic_tick(); });
}

void Capacity::elastic_tick() {
  tick_armed_ = false;
  elastic::PoolSnapshot snapshot;
  snapshot.memory_per_env = default_env_memory();
  snapshot.booting = table_.pooled_count(EnvState::kBooting);
  snapshot.warm = table_.pooled_count(EnvState::kWarmIdle);
  const elastic::PoolDecision decision =
      pool_->tick(snapshot, pool_->config().tick_s);
  metrics_.resolve(target_, "elastic.target")
      .set(static_cast<double>(decision.target));
  metrics_.resolve(forecast_rate_, "elastic.forecast_rate")
      .set(pool_->forecast_rate());
  metrics_.resolve(idle_gauge_, "elastic.idle_byte_seconds")
      .set(idle_byte_seconds());
  if (decision.prewarm > 0) elastic_prewarm(decision.prewarm);
  if (decision.drain > 0) elastic_retire_warm(decision.drain);
  // Keep ticking only while the run has work (queued sessions are live
  // too); the next arrival re-arms, so an idle platform's event queue
  // actually drains.
  if (live_sessions_ > 0) arm_elastic_tick();
}

void Capacity::arm_crash_pump(sim::FaultInjector& faults) {
  for (const sim::FaultKind kind :
       {sim::FaultKind::kContainerCrash, sim::FaultKind::kContainerOom}) {
    for (const sim::SimTime when : faults.scheduled_times(kind)) {
      server_.simulator().schedule_at(when, [this, &faults, kind]() {
        std::optional<EnvId> victim;
        for (const EnvRecord& rec : table_.records()) {
          if (!rec.ready()) continue;
          if (!victim) victim = rec.id;
          if (rec.inflight > 0) {
            victim = rec.id;
            break;
          }
        }
        if (!victim) return;  // nothing alive to kill
        faults.record_scheduled_fire(kind, server_.simulator().now());
        crash(*victim);
      });
    }
  }
}

}  // namespace rattrap::core
