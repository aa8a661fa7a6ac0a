#include "core/platform.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <string_view>

#include "android/image_profile.hpp"
#include "core/oracle.hpp"
#include "core/platform_state.hpp"

namespace rattrap::core {

const char* to_string(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kVmCloud:
      return "VM";
    case PlatformKind::kRattrapWithoutOpt:
      return "Rattrap(W/O)";
    case PlatformKind::kRattrap:
      return "Rattrap";
  }
  return "?";
}

PlatformConfig make_config(PlatformKind kind, net::LinkConfig link,
                           std::uint64_t seed) {
  PlatformConfig config;
  config.kind = kind;
  config.link = std::move(link);
  config.seed = seed;
  switch (kind) {
    case PlatformKind::kVmCloud:
      config.container_backing = false;
      config.customized_os = false;
      config.shared_resource_layer = false;
      config.sharing_offload_io = false;
      config.code_cache = false;
      config.dispatcher_affinity = false;
      break;
    case PlatformKind::kRattrapWithoutOpt:
      config.container_backing = true;
      config.customized_os = false;
      config.shared_resource_layer = false;
      config.sharing_offload_io = false;
      config.code_cache = false;
      config.dispatcher_affinity = false;
      break;
    case PlatformKind::kRattrap:
      break;  // all defaults on
  }
  return config;
}

/// Track 0 carries platform-wide instants (faults outside any session).
constexpr std::uint64_t kPlatformTrack = 0;

namespace {
/// The instrument in `slot`, looked up as prefix + suffix on first use.
obs::Counter& resolve(obs::Counter*& slot, obs::MetricsRegistry& metrics,
                      std::string_view prefix, std::string_view suffix = {}) {
  if (slot == nullptr) {
    std::string name(prefix);
    name += suffix;
    slot = &metrics.counter(name);
  }
  return *slot;
}

obs::Histogram& resolve(obs::Histogram*& slot, obs::MetricsRegistry& metrics,
                        std::string_view prefix,
                        std::string_view suffix = {}) {
  if (slot == nullptr) {
    std::string name(prefix);
    name += suffix;
    slot = &metrics.histogram(name);
  }
  return *slot;
}

/// Affinity-reroute backlog tolerance by class: interactive sessions give
/// up the code-cache reroute sooner than batch, which will happily wait
/// behind a longer queue to save the code push (docs/QOS.md).  Standard
/// keeps the pre-QoS 600 ms default.
sim::SimDuration class_backlog_threshold(qos::PriorityClass klass) {
  switch (klass) {
    case qos::PriorityClass::kInteractive:
      return sim::from_millis(300);
    case qos::PriorityClass::kStandard:
      return sim::from_millis(600);
    case qos::PriorityClass::kBatch:
      return sim::from_millis(1200);
  }
  return sim::from_millis(600);
}
}  // namespace

// Marks the session a handler (and everything it synchronously calls
// into — link, tmpfs, warehouse, kernel) acts for, so a fault fired deep
// inside a component annotates the right span. Scopes nest because
// handlers invoke each other directly.
struct Platform::SessionScope {
  SessionScope(Platform& platform, SessionState& session)
      : platform_(platform),
        prev_session_(platform.active_session_),
        prev_span_(platform.trace_.active()) {
    platform_.active_session_ = &session;
    platform_.trace_.set_active(session.span_phase != obs::kNoSpan
                                    ? session.span_phase
                                    : session.span_session);
  }
  ~SessionScope() {
    platform_.active_session_ = prev_session_;
    platform_.trace_.set_active(prev_span_);
  }
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  Platform& platform_;
  SessionState* prev_session_;
  obs::SpanId prev_span_;
};

void Platform::begin_phase(SessionState& s, const char* name) {
  if (!trace_.enabled()) return;
  if (s.span_phase != obs::kNoSpan) end_phase(s);
  s.span_phase = trace_.begin(s.request.sequence + 1, name, "phase",
                              server_->simulator().now());
  trace_.set_active(s.span_phase);
}

void Platform::end_phase(SessionState& s) {
  if (s.span_phase == obs::kNoSpan) return;
  trace_.end(s.span_phase, server_->simulator().now());
  s.span_phase = obs::kNoSpan;
}

void Platform::on_fault_fired(sim::FaultKind kind, sim::SimTime when) {
  metrics_.counter(std::string("faults.fired.") + sim::to_string(kind))
      .inc();
  if (!trace_.enabled()) return;
  const std::string name = std::string("fault:") + sim::to_string(kind);
  SessionState* s = active_session_;
  if (s != nullptr && !s->done) {
    const std::uint64_t hits = ++s->fault_hits[kind];
    const std::string key = std::string("fault.") + sim::to_string(kind);
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, key, hits);
    }
    if (s->span_session != obs::kNoSpan) {
      trace_.annotate(s->span_session, key, hits);
    }
    trace_.instant(s->request.sequence + 1, name, "fault", when);
  } else {
    // No session context (e.g. a pump-delivered container crash).
    trace_.instant(kPlatformTrack, name, "fault", when);
  }
}

// ---------------------------------------------------------------------

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // Session records are pooled: one slab block fits the shared_ptr
  // control block plus the SessionState payload (64 bytes of headroom
  // covers the library's control-block layout; anything bigger falls
  // through to the heap and is counted, never lost).
  session_pool_ =
      std::make_unique<sim::SlabPool>(sizeof(SessionState) + 64);
  const auto system_layer = config_.customized_os
                                ? android::customized_layer()
                                : android::container_stock_layer();
  Calibration calibration =
      config_.calibration ? *config_.calibration : default_calibration();
  if (config_.tmpfs_capacity_override > 0) {
    calibration.tmpfs_capacity = config_.tmpfs_capacity_override;
  }
  server_ = std::make_unique<CloudServer>(calibration, system_layer);
  link_ = std::make_unique<net::Link>(config_.link);
  base_link_ = config_.link;
  dispatcher_ = std::make_unique<Dispatcher>(env_table_,
                                             server_->warehouse(),
                                             config_.dispatcher_affinity);
  server_->install_metrics(&metrics_);
  // Lifecycle transitions feed the envdb.* / elastic.* metrics and, when
  // tracing is on, one state span per environment (docs/ELASTIC.md).
  env_table_.set_metrics(&metrics_);
  env_table_.set_trace(&trace_);
  link_->set_metrics(&metrics_);
  dispatcher_->set_metrics(&metrics_);
  // The access controller becomes a stateful defense layer (docs/RAC.md):
  // the block hook sweeps the offender's live sessions so a blocked
  // tenant consumes zero container time after block onset (invariant 14).
  server_->access().configure(config_.access);
  server_->access().on_block(
      [this](const std::string& tenant, sim::SimTime now) {
        on_tenant_blocked(tenant, now);
      });
  server_->access().on_unblock(
      [this](const std::string& tenant, sim::SimTime now) {
        if (oracle_ != nullptr) oracle_->touch_tenant(tenant);
        if (!trace_.enabled()) return;
        const obs::SpanId mark =
            trace_.instant(kPlatformTrack, "rac_unblock", "rac", now);
        trace_.annotate(mark, "tenant", tenant);
      });
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(
        config_.admission, server_->monitor(), calibration.server_cores);
    admission_->set_metrics(&metrics_);
  }
  if (config_.elastic.mode != elastic::PoolMode::kDisabled) {
    pool_controller_ =
        std::make_unique<elastic::PoolController>(config_.elastic);
  }
  if (!config_.fault_plan.empty()) {
    faults_ = std::make_unique<sim::FaultInjector>(config_.fault_plan,
                                                   config_.seed);
    faults_->set_clock(
        [this]() { return server_->simulator().now(); });
    link_->set_fault_injector(faults_.get());
    server_->install_fault_injector(faults_.get());
    faults_->set_fire_observer(
        [this](sim::FaultKind kind, sim::SimTime when) {
          on_fault_fired(kind, when);
        });
    server_->monitor().set_detection_latency(
        config_.crash_detection_latency);
    server_->monitor().set_crash_handler(
        [this](std::uint32_t env_id) { recover_env(env_id); });
  }
  // The invariant oracle runs with any fault plan, and on fault-free runs
  // when forced (the property batteries, experiments).
  if (config_.check_invariants &&
      (faults_ != nullptr || config_.force_invariants)) {
    oracle_ = std::make_unique<InvariantOracle>(*this);
    server_->simulator().set_post_event_hook(
        [this]() { oracle_->after_event(); });
  }
}

Platform::~Platform() = default;

device::RadioProfile Platform::radio_profile() const {
  if (config_.link.name == "3G") return device::radio_3g();
  if (config_.link.name == "4G") return device::radio_4g();
  return device::wifi_radio();
}

const Platform::KindData& Platform::kind_data(workloads::Kind kind) {
  std::optional<KindData>& slot = kinds_[static_cast<std::size_t>(kind)];
  if (!slot) {
    android::MobileApp app = android::MobileApp::for_workload(kind);
    std::string code_ref = code_reference(app.app_id());
    slot.emplace(KindData{
        std::move(app),
        workloads::make_workload(kind)->app().binder_calls_per_task,
        std::move(code_ref)});
  }
  return *slot;
}

const device::MobileDevice& Platform::device_for(std::uint32_t device_id) {
  while (devices_.size() <= device_id) {
    device::DeviceConfig dc;
    dc.id = static_cast<std::uint32_t>(devices_.size());
    devices_.emplace_back(dc);
  }
  return devices_[device_id];
}

double Platform::cpu_factor() const {
  const Calibration& cal = server_->calibration();
  return config_.container_backing ? cal.container_cpu_factor
                                   : cal.vm_cpu_factor;
}

sim::SimDuration Platform::compute_io_time(Env& env, std::uint64_t bytes,
                                           std::uint32_t ops) const {
  if (bytes == 0 && ops == 0) return 0;
  const Calibration& cal = server_->calibration();
  if (config_.sharing_offload_io) {
    // Sharing Offloading I/O: reads come from the shared tmpfs; a file
    // operation is a page-cache hit (~20 µs of VFS work).
    return server_->shared_layer().io_time(bytes) +
           static_cast<sim::SimDuration>(ops) * 20;
  }
  // Disk-backed offloading I/O: each discrete file operation pays a seek
  // (VirusScan's many small files are why it is the most I/O-bound
  // workload, §III-C), plus the streaming transfer.
  const sim::SimDuration per_op =
      sim::from_millis(cal.disk.avg_seek_ms + cal.disk.rotational_ms);
  const sim::SimDuration native =
      server_->disk().service_time(bytes, /*sequential=*/true) +
      static_cast<sim::SimDuration>(ops) * per_op;
  if (env.is_vm()) {
    return static_cast<sim::SimDuration>(static_cast<double>(native) /
                                         cal.vm_io_factor);
  }
  return native;  // container: native disk I/O
}

// ---------------------------------------------------------------------
// Environment provisioning

Platform::Env& Platform::provision_env(const std::string& binding_key,
                                       sim::SimTime now) {
  EnvRecord& rec = env_table_.add(
      config_.container_backing ? EnvBacking::kContainer : EnvBacking::kVm,
      binding_key, now);
  Env& env = *envs_.emplace_back(std::make_unique<Env>(rec));
  const bool started = env.is_vm() ? provision_vm(env) : provision_cac(env);
  if (!started) {
    // Dead on arrival — the VM density wall of a 512 MB-per-VM resource
    // model on a 16 GB server, a missing kernel feature, a cgroup memory
    // limit or an injected device-namespace teardown.  Every waiting
    // session is answered with a rejection.
    metrics_.counter("env.provision_failed").inc();
    rec.failed = true;
    rec.memory_bytes = 0;
    server_->simulator().schedule_in(0, [&env]() { env.run_waiters(); });
  }
  env_table_.transition(rec.id, EnvState::kBooting, now);
  if (!started) env_table_.transition(rec.id, EnvState::kReclaimed, now);
  return env;
}

bool Platform::provision_vm(Env& env) {
  const Calibration& cal = server_->calibration();
  vm::VmConfig vc;
  vc.name = "android-vm-" + std::to_string(env.id());
  vc.vcpus = 1;
  vc.memory = cal.vm_memory;
  vc.disk_image = android::stock_layer()->total_bytes();
  vc.cpu_factor = cal.vm_cpu_factor;
  vc.io_factor = cal.vm_io_factor;
  vm::VirtualMachine* machine = server_->hypervisor().create(vc);
  if (machine == nullptr) return false;  // host memory exhausted
  env.vm_id = machine->id();
  env.disk_bytes = vc.disk_image;
  env.rec.memory_bytes = vc.memory;

  const sim::SimTime boot_start = server_->simulator().now();
  server_->hypervisor().boot(
      env.vm_id, android::vm_boot_plan(android::OsProfile::kStock),
      [this, &env, boot_start](sim::SimTime booted_at) {
        // Boot keeps roughly one guest vCPU busy end to end.
        server_->monitor().record_cpu(boot_start, booted_at, 0.85);
        server_->simulator().schedule_in(
            server_->calibration().env_register_cost,
            [this, &env]() { env_ready(env); });
      });
  return true;
}

const CacTemplate& Platform::cac_template() {
  if (cac_template_) return *cac_template_;
  CacConfig cc;
  cc.profile = config_.customized_os ? android::OsProfile::kCustomized
                                     : android::OsProfile::kStock;
  if (config_.shared_resource_layer) {
    cc.lower_layers = {server_->shared_layer().system_layer()};
  } else {
    // Private full image copy per container (the W/O configuration).
    cc.lower_layers = {config_.customized_os
                           ? android::customized_layer()
                           : android::container_stock_layer()};
  }
  cc.memory_limit = config_.customized_os
                        ? server_->calibration().cac_opt_memory
                        : server_->calibration().cac_plain_memory;
  cac_template_.emplace(cc);
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

bool Platform::provision_cac(Env& env) {
  const CacTemplate& tmpl = cac_template();
  // A later CAC finds the shared layer page-cached by the first boot.
  const bool warm = config_.shared_resource_layer && envs_.size() > 1;
  env.cac = std::make_unique<CloudAndroidContainer>(
      tmpl, "cac-" + std::to_string(env.id()), warm, server_->containers(),
      server_->driver());
  env.rec.memory_bytes = tmpl.container.memory_limit;

  const auto start_cost = env.cac->start_container(server_->kernel());
  if (!start_cost.has_value()) return false;
  const android::UserspaceBoot& boot = env.cac->userspace_boot();

  // Per-environment disk: a private image copy without the shared layer,
  // or just the COW delta (seeded at finish_boot) with it.
  env.disk_bytes = config_.shared_resource_layer
                       ? 0  // updated after finish_boot
                       : tmpl.container.lower_layers.front()->total_bytes();

  // The boot continuations bail once the environment is torn down:
  // teardown frees the CAC.
  sim::Simulator& simulator = server_->simulator();
  const sim::SimTime cpu_start = simulator.now() + *start_cost;
  auto after_io = [this, &env, cpu = boot.cpu_total(), cpu_start]() {
    if (!env.rec.live()) return;
    sim::Simulator& simulator2 = server_->simulator();
    const sim::SimTime now = simulator2.now();
    const sim::SimTime cpu_done = now + cpu;
    server_->monitor().record_cpu(std::max(cpu_start, now), cpu_done, 0.9);
    simulator2.schedule_at(cpu_done, [this, &env]() {
      if (!env.rec.live()) return;
      env.cac->finish_boot(server_->simulator().now());
      if (config_.shared_resource_layer) {
        env.disk_bytes = env.cac->private_disk_bytes();
      }
      server_->simulator().schedule_in(
          server_->calibration().env_register_cost,
          [this, &env]() { env_ready(env); });
    });
  };

  simulator.schedule_at(cpu_start,
                        [this, disk_read = boot.disk_read_bytes, after_io]() {
    if (disk_read == 0) {
      after_io();
      return;
    }
    server_->disk().submit(fs::IoKind::kRead, disk_read,
                           /*sequential=*/true, after_io);
  });
  return true;
}

void Platform::env_ready(Env& env) {
  EnvRecord& rec = env.rec;
  rec.ready_at = server_->simulator().now();
  rec.busy_until = rec.ready_at;
  // A draining env turns ready with no transition.
  if (oracle_ != nullptr) oracle_->touch_env(env.id());
  metrics_.counter("env.provisioned").inc();
  metrics_.histogram("env.provision_ms")
      .observe(sim::to_millis(rec.ready_at - rec.provisioned_at));
  server_->monitor().env_up(env.id());
  if (pool_controller_ != nullptr) {
    pool_controller_->observe_boot(
        sim::to_seconds(rec.ready_at - rec.provisioned_at));
  }
  // A drain begun mid-boot already moved the record to draining.
  const bool draining = rec.state() == EnvState::kDraining;
  if (!draining) {
    env_table_.transition(
        env.id(), rec.inflight > 0 ? EnvState::kLeased : EnvState::kWarmIdle,
        rec.ready_at);
  }
  env.run_waiters();
  if (draining) {
    if (rec.inflight == 0) finish_drain(env);
    return;
  }
  schedule_reclaim(env);
}

Platform::Env& Platform::env_of(EnvId id) { return *envs_[id - 1]; }

void Platform::schedule_reclaim(Env& env) {
  if (config_.env_idle_timeout <= 0) return;
  const std::uint64_t epoch = env.rec.jobs_served;
  server_->simulator().schedule_in(
      config_.env_idle_timeout, [this, &env, epoch]() {
        const EnvRecord& rec = env.rec;
        if (!rec.ready()) return;
        if (env_table_.pooled(rec.id)) return;  // waiting warm
        if (rec.jobs_served != epoch) return;   // work arrived since
        if (rec.inflight > 0) return;           // sessions in progress
        if (rec.busy_until > server_->simulator().now()) return;
        begin_drain(env);
      });
}

void Platform::teardown_env(Env& env, bool crashed) {
  server_->monitor().env_down(env.id());
  env_table_.transition(env.id(), EnvState::kReclaimed,
                        server_->simulator().now());
  server_->warehouse().forget_env(env.id());
  if (env.is_vm()) {
    server_->hypervisor().destroy(env.vm_id);
  } else if (env.cac && crashed) {
    env.cac->crash(server_->kernel());
  } else if (env.cac) {
    env.cac->shutdown(server_->kernel());
  }
  env.cac.reset();
}

// ---------------------------------------------------------------------
// Elastic capacity machinery (docs/ELASTIC.md)

std::uint64_t Platform::session_pool_heap_fallbacks() const {
  return session_pool_->heap_fallbacks();
}

void Platform::begin_drain(Env& env) {
  if (!env.rec.leasable()) return;  // already draining or reclaimed
  metrics_.counter("elastic.drained").inc();
  // Leaves the warm pool for good.
  env_table_.transition(env.id(), EnvState::kDraining,
                        server_->simulator().now());
  // Unbind the affinity key so the dispatcher never routes new work
  // here; in-flight sessions keep their binding through s->env.
  env_table_.rebind(env.id(), "drain:" + std::to_string(env.id()));
  if (env.rec.ready() && env.rec.inflight == 0) finish_drain(env);
}

void Platform::finish_drain(Env& env) {
  if (!env.rec.live()) return;
  if (!env.is_vm() && env.cac != nullptr) {
    // Reclaim the private COW layer; shared lower layers stay for the
    // environments still referencing them.
    const std::uint64_t freed = env.cac->reclaim_private_layer();
    if (freed > 0) {
      metrics_.counter("elastic.reclaimed.private_bytes").inc(freed);
    }
  }
  teardown_env(env, /*crashed=*/false);
}

bool Platform::drain_env(std::uint32_t env_id) {
  const EnvRecord* rec = env_table_.find(env_id);
  if (rec == nullptr || !rec->leasable()) return false;
  begin_drain(env_of(env_id));
  return true;
}

Platform::Env& Platform::prewarm_env() {
  Env& env = provision_env("pool:" + std::to_string(pool_seq_++),
                           server_->simulator().now());
  env_table_.add_to_pool(env.id());
  metrics_.counter("elastic.prewarmed").inc();
  return env;
}

std::uint64_t Platform::default_env_memory() const {
  const Calibration& cal = server_->calibration();
  if (!config_.container_backing) return cal.vm_memory;
  return config_.customized_os ? cal.cac_opt_memory : cal.cac_plain_memory;
}

std::uint32_t Platform::warm_idle_count() const {
  std::uint32_t n = 0;
  for (const EnvId id : env_table_.pool()) {
    if (env_table_.find(id)->state() == EnvState::kWarmIdle) ++n;
  }
  return n;
}

std::uint32_t Platform::elastic_prewarm(std::uint32_t count) {
  if (count == 0) return 0;
  // Honor the memory budget against the whole pool pipeline (booting
  // included) so a rebalance burst cannot overshoot it either.
  const std::uint64_t budget =
      pool_controller_ ? pool_controller_->config().memory_budget_bytes : 0;
  const std::uint64_t mem = default_env_memory();
  if (budget > 0 && mem > 0) {
    const std::uint64_t committed = env_table_.pool_bytes();
    const std::uint64_t room = budget > committed ? budget - committed : 0;
    count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count, room / mem));
  }
  for (std::uint32_t i = 0; i < count; ++i) prewarm_env();
  return count;
}

std::uint32_t Platform::elastic_retire_warm(std::uint32_t count) {
  // Newest-first: the longest-warm environments (page caches hottest)
  // survive; deterministic because env ids are allocation-ordered.
  // Collected first: begin_drain() takes each one out of the pool.
  std::vector<EnvId> victims;
  const std::set<EnvId>& pool = env_table_.pool();
  for (auto it = pool.rbegin(); it != pool.rend() && victims.size() < count;
       ++it) {
    if (env_table_.find(*it)->state() == EnvState::kWarmIdle) {
      victims.push_back(*it);
    }
  }
  for (const EnvId id : victims) begin_drain(env_of(id));
  return static_cast<std::uint32_t>(victims.size());
}

void Platform::arm_elastic_tick() {
  if (pool_controller_ == nullptr || elastic_tick_armed_) return;
  elastic_tick_armed_ = true;
  server_->simulator().schedule_in(
      sim::from_seconds(pool_controller_->config().tick_s),
      [this]() { elastic_tick(); });
}

void Platform::elastic_tick() {
  elastic_tick_armed_ = false;
  if (pool_controller_ == nullptr) return;
  elastic::PoolSnapshot snapshot;
  snapshot.memory_per_env = default_env_memory();
  for (const EnvId id : env_table_.pool()) {
    const EnvState state = env_table_.find(id)->state();
    if (state == EnvState::kBooting) ++snapshot.booting;
    if (state == EnvState::kWarmIdle) ++snapshot.warm;
  }
  const elastic::PoolDecision decision =
      pool_controller_->tick(snapshot, pool_controller_->config().tick_s);
  metrics_.gauge("elastic.target").set(static_cast<double>(decision.target));
  metrics_.gauge("elastic.forecast_rate")
      .set(pool_controller_->forecast_rate());
  metrics_.gauge("elastic.idle_byte_seconds").set(idle_byte_seconds());
  if (decision.prewarm > 0) elastic_prewarm(decision.prewarm);
  if (decision.drain > 0) elastic_retire_warm(decision.drain);
  // Keep ticking only while the run has work; the next arrival re-arms,
  // so an idle platform's event queue actually drains.
  if (!live_sessions_.empty() || !queued_sessions_.empty()) {
    arm_elastic_tick();
  }
}

// ---------------------------------------------------------------------
// SessionState flow

std::vector<RequestOutcome> Platform::run(
    const std::vector<workloads::OffloadRequest>& stream) {
  Result<Session> session = open_session();
  assert(session.ok() && "the default session config is always valid");
  for (const auto& request : stream) session->submit(request);
  (void)session->close();
  return outcomes_;
}

// -- Session handles (docs/QOS.md) ------------------------------------

Session::Session(Session&& other) noexcept
    : platform_(other.platform_), id_(other.id_) {
  other.platform_ = nullptr;
  other.id_ = 0;
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    if (platform_ != nullptr) platform_->close_stream(id_);
    platform_ = other.platform_;
    id_ = other.id_;
    other.platform_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

Session::~Session() {
  if (platform_ != nullptr) platform_->close_stream(id_);
}

void Session::submit(const workloads::OffloadRequest& request) {
  assert(platform_ != nullptr && "submit on a closed Session");
  platform_->submit_to_stream(id_, request);
}

const RequestOutcome* Session::result(std::uint64_t sequence) const {
  assert(platform_ != nullptr && "result on a closed Session");
  return platform_->result(sequence);
}

std::vector<RequestOutcome> Session::close() {
  assert(platform_ != nullptr && "close on a closed Session");
  // The handle stays live through the drain: close_stream() runs the
  // shared event queue dry, and a completion observer may legitimately
  // submit follow-ups into this very session while that happens
  // (closed-loop load does exactly this).  Only once the drain finishes
  // does the handle detach.
  std::vector<RequestOutcome> results = platform_->close_stream(id_);
  platform_ = nullptr;
  return results;
}

const SessionConfig& Session::config() const {
  assert(platform_ != nullptr && "config on a closed Session");
  return platform_->stream_config(id_);
}

Result<Session> Platform::open_session(SessionConfig config) {
  if (config.tenant_weight == 0 ||
      (config.tenant_weight != 1 && config.tenant.empty())) {
    // A weight needs a named tenant to attach to, and 0 would stall DRR.
    return RejectReason::kInvalidConfig;
  }
  // Front-door permission check (docs/RAC.md): a blocked tenant cannot
  // even open a stream.  Per-app tenancy (empty tenant) is gated per
  // request at arrival instead, where the app id is known.
  if (!config.tenant.empty() &&
      server_->access().allow_open(config.tenant,
                                   server_->simulator().now()) !=
          AccessDeny::kNone) {
    return RejectReason::kAccessDenied;
  }
  if (!run_active_) reset_run();
  const std::uint64_t id = next_stream_id_++;
  Stream stream;
  stream.config = std::move(config);
  if (admission_ != nullptr && stream.config.tenant_weight != 1) {
    admission_->set_tenant_weight(stream.config.tenant,
                                  stream.config.tenant_weight);
  }
  streams_.emplace(id, std::move(stream));
  return Session(this, id);
}

const SessionConfig& Platform::stream_config(
    std::uint64_t stream_id) const {
  const auto it = streams_.find(stream_id);
  assert(it != streams_.end());
  return it->second.config;
}

const RequestOutcome* Platform::result(std::uint64_t sequence) const {
  if (sequence >= outcomes_.size() || outcome_done_[sequence] == 0) {
    return nullptr;
  }
  return &outcomes_[sequence];
}

std::vector<RequestOutcome> Platform::close_stream(
    std::uint64_t stream_id) {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end() || !it->second.open) return {};
  drain_run();
  it->second.open = false;
  std::vector<RequestOutcome> results;
  results.reserve(it->second.sequences.size());
  for (const std::uint64_t sequence : it->second.sequences) {
    assert(sequence < outcomes_.size() && outcome_done_[sequence] != 0);
    results.push_back(outcomes_[sequence]);
  }
  bool any_open = false;
  for (const auto& [id, stream] : streams_) {
    (void)id;
    if (stream.open) any_open = true;
  }
  if (!any_open) run_active_ = false;
  return results;
}

// ---------------------------------------------------------------------

void Platform::reset_run() {
  outcomes_.clear();
  outcome_done_.clear();
  completed_ = 0;
  live_sessions_.clear();
  queued_sessions_.clear();
  if (admission_ != nullptr) admission_->scheduler().clear();
  streams_.clear();
  run_active_ = true;
  sim::Simulator& simulator = server_->simulator();
  if (envs_.empty()) {
    const std::uint32_t initial =
        elastic::initial_target(config_.elastic, default_env_memory());
    for (std::uint32_t i = 0; i < initial; ++i) prewarm_env();
  }
  if (pool_controller_ != nullptr) arm_elastic_tick();
  arm_mobility_pump();
  if (faults_) {
    // Fault pump: one-shot (at=) crash rules fire against whichever
    // environment is live at that virtual time — preferring one with
    // sessions in flight, so the crash actually hurts.
    for (const sim::FaultKind kind : {sim::FaultKind::kContainerCrash,
                                      sim::FaultKind::kContainerOom}) {
      for (const sim::SimTime when : faults_->scheduled_times(kind)) {
        simulator.schedule_at(when, [this, kind]() {
          std::optional<EnvId> victim;
          for (const EnvId id : env_table_.live_ids()) {
            const EnvRecord& rec = *env_table_.find(id);
            if (!rec.ready()) continue;
            if (!victim) victim = id;
            if (rec.inflight > 0) {
              victim = id;
              break;
            }
          }
          if (!victim) return;  // nothing alive to kill
          faults_->record_scheduled_fire(kind,
                                         server_->simulator().now());
          crash_env(env_of(*victim));
        });
      }
    }
  }
}

void Platform::submit_to_stream(std::uint64_t stream_id,
                                const workloads::OffloadRequest& request) {
  const auto stream_it = streams_.find(stream_id);
  assert(stream_it != streams_.end() && stream_it->second.open &&
         "submit on an unknown or closed session");
  Stream& stream = stream_it->second;
  stream.sequences.push_back(request.sequence);
  sim::Simulator& simulator = server_->simulator();
  if (outcomes_.size() <= request.sequence) {
    outcomes_.resize(request.sequence + 1);
    outcome_done_.resize(request.sequence + 1, 0);
  }
  SessionMetrics& sm = session_metrics_;
  resolve(sm.offered, metrics_, "sessions.offered").inc();
  auto session = std::allocate_shared<SessionState>(
      sim::StlSlabAllocator<SessionState>(session_pool_.get()));
  session->request = request;
  session->kind = request.task.kind;
  session->app = &kind_data(session->kind);
  // The QoS identity rides on the session the request was submitted
  // through; an empty tenant falls back to per-app tenancy (the legacy
  // token-bucket key).
  session->stream_id = stream_id;
  session->klass = stream.config.priority;
  session->deadline = stream.config.deadline;
  session->tenant = stream.config.tenant.empty() ? session->app_id()
                                                 : stream.config.tenant;
  resolve(sm.qos_offered[qos::class_index(session->klass)], metrics_,
          "qos.offered.", qos::to_string(session->klass))
      .inc();
  // Execute the real kernel now; work units drive the simulated times.
  // Identical tasks replayed across platforms (§VI-D record/replay)
  // share one execution through a process-wide memo.
  session->executed = execute_task_cached(request.task);
  session->conn.emplace(*link_, rng_.fork(request.sequence + 1));
  if (!sm.net) sm.net = net::Connection::resolve_metrics(metrics_);
  session->conn->set_metrics(*sm.net);
  simulator.schedule_at(std::max(request.arrival, simulator.now()),
                        [this, session]() { on_arrival(session); });
}

void Platform::drain_run() {
  sim::Simulator& simulator = server_->simulator();
  simulator.run();
  if (faults_) {
    // With recovery disabled (or budgets exhausted mid-flight) sessions
    // can strand on a dead environment; the event queue drains with
    // their outcomes unrecorded. Mark them rejected so the caller sees
    // every request accounted for — and so the invariant report is the
    // only place a stranding hides.  Stranded sessions give back every
    // slot they held — the tenant's RAC in-flight quota slot, and a
    // class-queue or in-service slot — so later runs are not refused
    // for work that is no longer in flight.
    for (const auto& s : live_sessions_) {
      if (s->done) continue;
      release_slots(*s);
      RequestOutcome outcome;
      outcome.request = s->request;
      outcome.phases = s->phases;
      outcome.completed_at = simulator.now();
      outcome.response = simulator.now() - s->request.arrival;
      outcome.rejected = true;
      outcome.reject_reason = RejectReason::kStranded;
      outcome.stranded = true;
      outcome.tenant = s->tenant;
      outcome.qos_class = s->klass;
      outcome.radio = config_.link.name;
      outcome.resumed = s->resumed;
      outcome.dispatch_attempts = s->dispatch_attempts;
      outcome.connect_attempts = s->connect_attempts;
      record_outcome(s->request.sequence, std::move(outcome));
      s->done = true;
      touched(*s);
      ++completed_;
      metrics_.counter("sessions.stranded").inc();
      metrics_
          .counter(std::string("qos.stranded.") + qos::to_string(s->klass))
          .inc();
      if (s->span_session != obs::kNoSpan) {
        trace_.annotate(s->span_session, "stranded", std::uint64_t{1});
      }
    }
    live_sessions_.clear();
    queued_sessions_.clear();
  }
  if (oracle_ != nullptr) oracle_->quiescent_sweep();
  trace_.close_open_spans(simulator.now());
  assert(completed_ == outcomes_.size());
}

void Platform::record_outcome(std::uint64_t sequence,
                              RequestOutcome outcome) {
  assert(sequence < outcomes_.size());
  outcomes_[sequence] = std::move(outcome);
  outcome_done_[sequence] = 1;
}

void Platform::on_arrival(const std::shared_ptr<SessionState>& s) {
  if (trace_.enabled()) {
    s->span_session = trace_.begin(s->request.sequence + 1, "session",
                                   "session", server_->simulator().now());
    trace_.annotate(s->span_session, "app", s->app_id());
    trace_.annotate(s->span_session, "device",
                    static_cast<std::uint64_t>(s->request.device_id));
    trace_.annotate(s->span_session, "class", qos::to_string(s->klass));
    trace_.annotate(s->span_session, "tenant", s->tenant);
    if (const auto it = streams_.find(s->stream_id); it != streams_.end()) {
      trace_.annotate(
          s->span_session, "tenant_weight",
          static_cast<std::uint64_t>(it->second.config.tenant_weight));
    }
    if (config_.shard_index >= 0) {
      trace_.annotate(s->span_session, "placement",
                      static_cast<std::uint64_t>(config_.shard_index));
    }
  }
  if (config_.adaptive_offloading) {
    DecisionState& history = decisions_[s->app_id()];
    constexpr std::uint32_t kExplore = 3;  // first offloads gather data
    if (history.samples >= kExplore &&
        history.ewma_remote_s >= history.ewma_local_s) {
      // Run locally: no traffic, no cloud involvement.
      const device::MobileDevice& dev = device_for(s->request.device_id);
      const sim::SimDuration local =
          dev.local_execution_time(s->kind, s->executed);
      server_->simulator().schedule_in(local, [this, s, local]() {
        RequestOutcome outcome;
        outcome.request = s->request;
        outcome.completed_at = server_->simulator().now();
        outcome.response = local;
        outcome.local_time = local;
        outcome.speedup = 1.0;  // executed locally by choice
        const device::RadioProfile radio = radio_profile();
        const device::MobileDevice& dev2 =
            device_for(s->request.device_id);
        outcome.local_energy_mj =
            dev2.local_energy_mj(s->kind, s->executed, radio);
        outcome.offload_energy_mj = outcome.local_energy_mj;
        outcome.tenant = s->tenant;
        outcome.qos_class = s->klass;
        outcome.radio = config_.link.name;
        record_outcome(s->request.sequence, std::move(outcome));
        ++completed_;
        metrics_.counter("sessions.local").inc();
        metrics_
            .counter(std::string("qos.local.") + qos::to_string(s->klass))
            .inc();
        if (s->span_session != obs::kNoSpan) {
          trace_.annotate(s->span_session, "local", std::uint64_t{1});
          trace_.end(s->span_session, server_->simulator().now());
        }
        // Local runs refresh the local estimate.
        DecisionState& h = decisions_[s->app_id()];
        const double local_s = sim::to_seconds(local);
        h.ewma_local_s = h.ewma_local_s == 0
                             ? local_s
                             : 0.7 * h.ewma_local_s + 0.3 * local_s;
      });
      return;
    }
  }
  // RAC request gate (docs/RAC.md): a blocked tenant is refused before
  // it consumes any platform resource, and the in-flight quota clips a
  // flooding tenant ahead of the QoS queues.  Every kNone is paired with
  // release() in finish_session via rac_slot.
  const AccessDeny deny =
      server_->access().admit(s->tenant, server_->simulator().now());
  if (deny != AccessDeny::kNone) {
    live_sessions_.push_back(s);
    reject_session(s, deny == AccessDeny::kQuota
                          ? RejectReason::kQuotaExceeded
                          : RejectReason::kAccessDenied);
    return;
  }
  s->rac_slot = true;
  if (pool_controller_ != nullptr) {
    // Offloaded arrivals feed the forecaster; locally served requests
    // (the adaptive early-return above) never need warm capacity.
    pool_controller_->observe_arrival(s->klass);
    arm_elastic_tick();
  }
  live_sessions_.push_back(s);
  touched(*s);
  attempt_connect(s);
}

void Platform::attempt_connect(const std::shared_ptr<SessionState>& s) {
  // The retry/backoff continuations carry no epoch guard; a session the
  // RAC block sweep rejected mid-connect must not rise again.
  if (s->done) return;
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  // Retries reuse the one "connect" span; it ends when a handshake lands.
  if (s->span_phase == obs::kNoSpan) begin_phase(*s, "connect");
  const sim::SimDuration stall = mobility_stall(simulator.now());
  if (stall > 0) {
    // Radio detached (handoff outage): the handshake cannot even start;
    // the device re-attempts the instant the new radio attaches.  A
    // session whose connection the outage cut mid-retry counts as
    // resumed; a request merely *arriving* during the gap just waits.
    if (s->connect_attempts > 0) note_resumption(*s);
    s->phases.network_connection += stall;
    const std::uint64_t epoch = s->epoch;
    simulator.schedule_in(stall, [this, s, epoch]() {
      if (s->done || s->epoch != epoch) return;
      attempt_connect(s);
    });
    return;
  }
  ++s->connect_attempts;
  if (s->span_phase != obs::kNoSpan) {
    trace_.annotate(s->span_phase, "attempts",
                    static_cast<std::uint64_t>(s->connect_attempts));
  }
  const sim::SimDuration connect = s->conn->establish();
  s->phases.network_connection += connect;
  if (faults_ &&
      faults_->should_fire(sim::FaultKind::kNetDrop, simulator.now())) {
    // The handshake never completes; the client times out and retries
    // with exponential backoff until its attempt budget runs dry.
    if (s->connect_attempts >= config_.max_connect_attempts) {
      simulator.schedule_in(connect, [this, s]() {
        reject_session(s, RejectReason::kConnectFailed);
      });
      return;
    }
    const sim::SimDuration backoff =
        config_.connect_backoff *
        static_cast<sim::SimDuration>(1u << (s->connect_attempts - 1));
    s->phases.network_connection += backoff;
    simulator.schedule_in(connect + backoff,
                          [this, s]() { attempt_connect(s); });
    return;
  }
  simulator.schedule_in(connect, [this, s]() { on_connected(s); });
}

void Platform::on_connected(const std::shared_ptr<SessionState>& s) {
  if (s->done) return;  // swept by a RAC block while the handshake flew
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  s->connected_at = simulator.now();
  end_phase(*s);  // connect
  begin_phase(*s, "dispatch");
  const Calibration& cal = server_->calibration();

  sim::SimDuration platform_cost = cal.dispatcher_cost;
  if (config_.code_cache) {
    platform_cost += cal.warehouse_lookup_cost;
    s->cache_hit = server_->warehouse().lookup(s->app->code_ref);
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, "cache_hit",
                      static_cast<std::uint64_t>(s->cache_hit ? 1 : 0));
    }
  }
  // Request-based Access Controller: per-app analysis, once.
  if (server_->access().ensure_analyzed(s->app_id())) {
    platform_cost += cal.access_analysis_cost;
  } else {
    platform_cost += cal.access_check_cost;
  }

  // Request-based Access Controller front gate: requests of blocked
  // tenants never reach an environment (§IV-E).  Belt and braces after
  // the arrival gate — the tenant may have crossed the threshold while
  // this session's handshake was in flight.
  if (server_->access().allow_open(s->tenant, simulator.now()) !=
      AccessDeny::kNone) {
    reject_session(s, RejectReason::kAccessDenied);
    return;
  }

  // Admission front door (docs/LOADGEN.md, docs/QOS.md): per-tenant
  // token bucket, per-class utilization shedding, then a dispatch slot
  // or the class-aware bounded queue.
  if (admission_ != nullptr) {
    const Result<AdmissionController::Admitted> verdict = admission_->offer(
        AdmissionController::Offer{s->tenant, s->klass,
                                   s->request.sequence},
        simulator.now());
    if (!verdict) {
      reject_session(s, verdict.error());
      return;
    }
    if (*verdict == AdmissionController::Admitted::kQueued) {
      s->queued = true;
      s->enqueued_at = simulator.now();
      s->pending_lead = platform_cost;
      queued_sessions_.emplace(s->request.sequence, s);
      touched(*s);
      if (s->span_phase != obs::kNoSpan) {
        trace_.annotate(s->span_phase, "queued", std::uint64_t{1});
      }
      return;  // dispatched by maybe_start_queued() when a slot frees
    }
    s->admitted = true;
    touched(*s);
  }

  dispatch(s, platform_cost);
}

void Platform::maybe_start_queued() {
  if (admission_ == nullptr) return;
  sim::Simulator& simulator = server_->simulator();
  while (admission_->can_start_queued()) {
    // The scheduler decides which class/tenant goes next (strict priority
    // + weighted DRR); finished sessions were already removed from the
    // queue by finish_session, so every pop maps to a live session.
    const auto popped = admission_->pop_queued(simulator.now());
    if (!popped) break;
    const auto it = queued_sessions_.find(popped->id);
    assert(it != queued_sessions_.end() &&
           "scheduler echoed an id the platform is not tracking");
    std::shared_ptr<SessionState> s = it->second;
    queued_sessions_.erase(it);
    s->queued = false;
    s->admitted = true;
    s->queue_wait = popped->waited;
    s->drr_deficit = popped->deficit_after;
    touched(*s);
    SessionScope scope(*this, *s);
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, "queue_wait_us",
                      static_cast<std::uint64_t>(s->queue_wait));
      trace_.annotate(s->span_phase, "deficit", s->drr_deficit);
    }
    dispatch(s, s->pending_lead);
  }
}

void Platform::dispatch(const std::shared_ptr<SessionState>& s,
                        sim::SimDuration lead_cost) {
  sim::Simulator& simulator = server_->simulator();
  ++s->dispatch_attempts;
  EnvRecord* record =
      dispatcher_->assign(s->request, s->app->code_ref, simulator.now(),
                          class_backlog_threshold(s->klass), s->klass);
  Env* env = record != nullptr ? &env_of(record->id) : nullptr;
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_in(lead_cost, [this, s, env, epoch]() {
    if (s->done || s->epoch != epoch) return;  // aborted meanwhile
    SessionScope scope(*this, *s);
    Env* target = env;
    bool claimed_pool = false;
    bool fresh = false;
    if (target == nullptr || !target->rec.leasable()) {
      const std::string key = Dispatcher::binding_key(s->request);
      // A warm-pool environment (pre-booted, unclaimed) is rebound to
      // this device instead of paying a cold start; the lowest id wins.
      // Draining capacity left the pool the moment its drain began.
      if (const std::optional<EnvId> claimed = env_table_.claim_pool()) {
        target = &env_of(*claimed);
        if (target->rec.ready()) {
          // Prewarm lead time: how far ahead of demand the controller
          // had this environment standing warm.
          if (prewarm_lead_ms_ == nullptr) {
            prewarm_lead_ms_ = &metrics_.histogram("elastic.prewarm.lead_ms");
          }
          prewarm_lead_ms_->observe(sim::to_millis(
              server_->simulator().now() - target->rec.ready_at));
        }
        env_table_.rebind(*claimed, key);
        claimed_pool = true;
      } else {
        // Switch the phase before provisioning so faults fired during
        // the (synchronous) container start annotate the boot, not the
        // dispatch decision.
        begin_phase(*s, "provision");
        fresh = true;
        target = &provision_env(key, server_->simulator().now());
      }
    }
    EnvRecord& rec = target->rec;
    if (!fresh) {
      fresh = !rec.ready();
      begin_phase(*s, fresh ? "provision" : "reuse");
    }
    s->fresh_env = fresh;
    if (s->span_phase != obs::kNoSpan) {
      trace_.annotate(s->span_phase, "env_id",
                      static_cast<std::uint64_t>(rec.id));
      if (claimed_pool) {
        trace_.annotate(s->span_phase, "warm_pool", std::uint64_t{1});
      }
    }
    s->env = target;
    ++rec.inflight;  // pins the env against idle reclamation
    touched(*s);
    if (rec.ready() && rec.inflight == 1) {
      env_table_.transition(rec.id, EnvState::kLeased,
                            server_->simulator().now());
    }
    if (rec.ready()) {
      on_env_ready(s);
    } else {
      target->waiters.push_back([this, s, epoch]() {
        if (s->done || s->epoch != epoch) return;
        on_env_ready(s);
      });
    }
  });
}

void Platform::on_env_ready(const std::shared_ptr<SessionState>& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  if (s->env->rec.failed) {
    // Provisioning failed (host capacity): reject the request.
    reject_session(s, RejectReason::kCapacity);
    return;
  }
  const sim::SimDuration stall = mobility_stall(simulator.now());
  if (stall > 0) {
    // Handoff outage cut the session between dispatch and upload: the
    // environment stays bound and the upload starts when the new radio
    // attaches (the wait lands in runtime_preparation, which is wall
    // time from the device's perspective).
    note_resumption(*s);
    const std::uint64_t epoch = s->epoch;
    simulator.schedule_in(stall, [this, s, epoch]() {
      if (s->done || s->epoch != epoch) return;
      on_env_ready(s);
    });
    return;
  }
  s->phases.runtime_preparation = simulator.now() - s->connected_at;
  // The paper's headline latency split: what a session waits when its
  // environment must boot vs when a warm one is rebound.
  SessionMetrics& sm = session_metrics_;
  (s->fresh_env
       ? resolve(sm.prep_provision_ms, metrics_, "session.prep.provision_ms")
       : resolve(sm.prep_reuse_ms, metrics_, "session.prep.reuse_ms"))
      .observe(sim::to_millis(s->phases.runtime_preparation));
  if (warm_hits_ == nullptr) {
    warm_hits_ = &metrics_.counter("elastic.warm_hits");
    cold_boots_ = &metrics_.counter("elastic.cold_boots");
    warm_hit_ratio_ = &metrics_.gauge("elastic.warm_hit_ratio");
  }
  (s->fresh_env ? cold_boots_ : warm_hits_)->inc();
  {
    const double hits = static_cast<double>(warm_hits_->value());
    const double cold = static_cast<double>(cold_boots_->value());
    warm_hit_ratio_->set(hits / std::max(1.0, hits + cold));
  }
  begin_phase(*s, "transfer");

  // Determine the code push. With a code cache the warehouse answer
  // rules; without one the client must push into every environment that
  // has not seen this app yet (the duplicate transfer of Obs. 3).
  bool have_code;
  if (config_.code_cache) {
    have_code = s->cache_hit;
  } else {
    have_code = s->env->pushed_apps.contains(s->app_id());
    s->cache_hit = have_code;
  }

  const device::MobileDevice& dev = device_for(s->request.device_id);
  device::OffloadClient client(dev);
  const device::UploadPlan plan =
      client.plan_upload(s->request, s->app->app.apk_bytes(), have_code);

  // Upload: control handshake, optional code, files + parameters.
  sim::SimDuration upload = dev.config().serialize_cost;
  upload += s->conn->upload(net::Message{net::MessageType::kControl,
                                         client.protocol().request_control});
  upload += s->conn->download(net::Message{
      net::MessageType::kControl, client.protocol().response_control});
  if (plan.push_code) {
    upload += s->conn->upload(
        net::Message{net::MessageType::kMobileCode, plan.code_bytes});
    s->env->pushed_apps.insert(s->app_id());
    if (config_.code_cache) {
      server_->warehouse().store(s->app->code_ref, plan.code_bytes);
    }
  }
  const std::uint64_t payload = plan.file_bytes + plan.param_bytes;
  if (payload > 0) {
    upload += s->conn->upload(
        net::Message{net::MessageType::kFileParams, payload});
  }


  // Server-side ingest of the arriving bytes: shared tmpfs (free relative
  // to the link) or the environment's disk (virtualized for VMs).
  const std::uint64_t ingest_bytes = plan.code_bytes + payload;
  sim::SimDuration ingest = 0;
  if (ingest_bytes > 0) {
    bool staged = false;
    if (config_.sharing_offload_io) {
      staged = server_->shared_layer().stage_request_files(
          s->request.sequence, payload, simulator.now());
      if (staged) {
        ingest = server_->shared_layer().io_time(ingest_bytes);
        s->staged = payload > 0;
      }
    }
    if (config_.sharing_offload_io && !staged && payload > 0) {
      // In-memory layer full: spill this request's files to disk (the
      // tradeoff §IV-C accepts — volatility and size are bounded because
      // offload payloads are small, but the fallback must exist).
      s->spilled_to_disk = true;
      const sim::SimDuration native =
          server_->disk().service_time(ingest_bytes, true);
      ingest = native;
      server_->disk().submit(fs::IoKind::kWrite, ingest_bytes, true,
                             []() {});
    }
    if (!config_.sharing_offload_io) {
      const sim::SimDuration native =
          server_->disk().service_time(ingest_bytes, true);
      ingest = s->env->is_vm()
                   ? static_cast<sim::SimDuration>(
                         static_cast<double>(native) /
                         server_->calibration().vm_io_factor)
                   : native;
      // The write hits the host disk (the Fig. 2 I/O burst after boot).
      server_->disk().submit(fs::IoKind::kWrite, ingest_bytes, true,
                             []() {});
    }
  }

  s->upload_time = upload;
  const sim::SimDuration transfer = std::max(upload, ingest);
  s->phases.data_transfer = transfer;
  if (s->span_phase != obs::kNoSpan) {
    trace_.annotate(s->span_phase, "push_code",
                    static_cast<std::uint64_t>(plan.push_code ? 1 : 0));
    trace_.annotate(s->span_phase, "bytes",
                    static_cast<std::uint64_t>(ingest_bytes));
    if (s->spilled_to_disk) {
      trace_.annotate(s->span_phase, "spilled", std::uint64_t{1});
    }
  }
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_in(transfer, [this, s, epoch]() {
    if (s->done || s->epoch != epoch) return;  // env died mid-transfer
    on_uploaded(s);
  });
}

void Platform::on_uploaded(const std::shared_ptr<SessionState>& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  begin_phase(*s, "execute");  // transfer ends now; queueing included
  Env& env = *s->env;

  // The controller filters every workflow leaving the container (§IV-E);
  // honest benchmark apps hold all of these grants.  Adversarial streams
  // additionally probe the operations their SessionConfig lists
  // (docs/RAC.md): each disallowed probe lands in the tenant's violation
  // ledger, and crossing the threshold blocks the tenant on the spot —
  // including this very session, swept by the on_block hook mid-handler.
  auto& access = server_->access();
  if (s->executed.units.io_bytes > 0) {
    access.check(s->app_id(), s->tenant, Operation::kReadOffloadFile,
                 simulator.now());
    access.check(s->app_id(), s->tenant, Operation::kWriteOffloadFile,
                 simulator.now());
  }
  access.check(s->app_id(), s->tenant, Operation::kBinderCall,
               simulator.now());
  if (config_.code_cache) {
    access.check(s->app_id(), s->tenant, Operation::kReadWarehouse,
                 simulator.now());
  }
  if (const auto stream_it = streams_.find(s->stream_id);
      stream_it != streams_.end()) {
    for (const Operation op : stream_it->second.config.probe_ops) {
      access.check(s->app_id(), s->tenant, op, simulator.now());
      if (s->done) break;  // probe crossed the threshold; we were swept
    }
  }
  if (s->done) return;  // self-evicted by the RAC block sweep

  // ClassLoader: first load per environment pays dex verification.
  android::ClassLoader& loader =
      env.is_vm() ? env.vm_loader : env.cac->classloader();
  const sim::SimDuration classload =
      loader.load(s->app_id(), s->app->app.apk_bytes());

  // Binder traffic of the task (exercises the Android Container Driver
  // for container-backed environments).
  sim::SimDuration binder_cost = 0;
  const std::uint32_t binder_calls = s->app->binder_calls_per_task;
  if (!env.is_vm() && env.cac->container() != nullptr) {
    const kernel::DevNsId ns = env.cac->container()->devns();
    for (std::uint32_t i = 0; i < binder_calls; ++i) {
      const auto result = server_->kernel().syscalls().invoke(
          kernel::kSysBinderTransact, ns, 512);
      binder_cost += result.cost;
    }
  } else {
    binder_cost = binder_calls * 2 *
                  kernel::BinderDriver::transaction_cost(512);
  }

  // Compute time: native units rate, degraded by the platform CPU factor,
  // plus the offloading I/O the task performs.
  const sim::SimDuration native =
      server_->native_compute_time(s->kind, s->executed.units.compute);
  const auto cpu = static_cast<sim::SimDuration>(
      static_cast<double>(native) / cpu_factor());
  sim::SimDuration io;
  if (s->spilled_to_disk) {
    // Spilled inputs read back from disk regardless of the shared layer.
    const Calibration& cal = server_->calibration();
    io = server_->disk().service_time(s->executed.units.io_bytes, true) +
         static_cast<sim::SimDuration>(s->request.task.io_ops) *
             sim::from_millis(cal.disk.avg_seek_ms + cal.disk.rotational_ms);
  } else {
    io = compute_io_time(env, s->executed.units.io_bytes,
                         s->request.task.io_ops);
  }
  if (config_.sharing_offload_io && !s->spilled_to_disk) {
    // Burn after reading: consume the staged files.
    server_->shared_layer().consume_request_files(s->request.sequence,
                                                  simulator.now());
    s->staged = false;
  } else if (s->executed.units.io_bytes > 0) {
    // The task reads its inputs back off the disk.
    server_->disk().submit(fs::IoKind::kRead, s->executed.units.io_bytes,
                           true, []() {});
  }

  // Interactive workloads keep chatting with the device while executing
  // (game-state sync, COMET-style): each round is a small message pair
  // plus device-side handling, serialized with the computation. Locally
  // run code gets this interaction for free, which is why chatty apps
  // profit less from offloading than their compute ratio suggests.
  sim::SimDuration interaction = 0;
  for (std::uint32_t round = 0; round < s->request.task.control_rounds;
       ++round) {
    s->conn->upload(net::Message{net::MessageType::kControl, 48});
    s->conn->download(net::Message{net::MessageType::kControl, 48});
    interaction += config_.link.rtt + sim::from_millis(60);
  }

  // Processor sharing: when more environments compute than the server
  // has cores, everybody slows proportionally (admission-time
  // approximation; exact redistribution is unnecessary at the paper's
  // 5-device scale but matters for the consolidation-density bench).
  const double concurrency =
      static_cast<double>(server_->monitor().running_jobs() + 1);
  const double cores = static_cast<double>(server_->calibration().server_cores);
  const double contention = std::max(1.0, concurrency / cores);
  const sim::SimDuration duration = static_cast<sim::SimDuration>(
      static_cast<double>(classload + binder_cost + cpu + io + interaction) *
      contention);
  const sim::SimTime start = std::max(simulator.now(), env.rec.busy_until);
  const sim::SimTime done = start + duration;
  env.rec.busy_until = done;
  server_->monitor().record_cpu(start, done, 1.0);
  server_->monitor().job_started(s->klass);
  s->computing = true;
  touched(*s);
  if (faults_) {
    // Container crash / OOM-kill: the environment dies halfway through
    // this job. One consult per job and per kind keeps both substreams
    // advancing deterministically regardless of which one fires.
    const bool crash_fire =
        faults_->should_fire(sim::FaultKind::kContainerCrash,
                             simulator.now());
    const bool oom_fire = faults_->should_fire(
        sim::FaultKind::kContainerOom, simulator.now());
    if (crash_fire || oom_fire) {
      simulator.schedule_at(start + duration / 2,
                            [this, &env]() { crash_env(env); });
    }
  }
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_at(done, [this, s, epoch]() {
    if (s->done || s->epoch != epoch) return;  // env died mid-compute
    on_computed(s);
  });
}

void Platform::on_computed(const std::shared_ptr<SessionState>& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  server_->monitor().job_finished(s->klass);
  s->computing = false;
  touched(*s);
  Env& env = *s->env;
  // Computation phase spans upload-end → compute-end (queueing included).
  s->phases.computation = simulator.now() -
                          (s->connected_at + s->phases.runtime_preparation +
                           s->phases.data_transfer);
  begin_phase(*s, "teardown");  // result download + completion control
  ++env.rec.jobs_served;
  if (config_.code_cache) {
    server_->warehouse().record_execution(s->app->code_ref, env.id());
  }

  // Result + completion control flow back.
  device::OffloadClient client(device_for(s->request.device_id));
  sim::SimDuration download = s->conn->download(
      net::Message{net::MessageType::kResult, s->request.task.result_bytes});
  download += s->conn->upload(net::Message{
      net::MessageType::kControl, client.protocol().completion_control});
  s->download_time = download;
  s->phases.data_transfer += download;
  // Handoff outage at result-delivery time: the download waits for the
  // new radio to attach (the computed result is already spooled server
  // side), then transfers at the new radio's rates.
  const sim::SimDuration stall = mobility_stall(simulator.now());
  if (stall > 0) {
    note_resumption(*s);
    s->phases.data_transfer += stall;
  }
  const std::uint64_t epoch = s->epoch;
  simulator.schedule_in(stall + download, [this, s, epoch]() {
    if (s->done || s->epoch != epoch) return;  // env died mid-download
    complete(s);
  });
}

void Platform::complete(const std::shared_ptr<SessionState>& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  end_phase(*s);  // teardown
  RequestOutcome outcome;
  outcome.request = s->request;
  outcome.phases = s->phases;
  outcome.completed_at = simulator.now();
  outcome.response = simulator.now() - s->request.arrival;
  const device::MobileDevice& dev = device_for(s->request.device_id);
  outcome.local_time = dev.local_execution_time(s->kind, s->executed);
  outcome.speedup = outcome.response > 0
                        ? static_cast<double>(outcome.local_time) /
                              static_cast<double>(outcome.response)
                        : 0.0;
  const device::RadioProfile radio = radio_profile();
  outcome.upload_time = s->upload_time;
  outcome.download_time = s->download_time;
  outcome.offload_energy_mj = offload_energy_mj(
      s->phases, s->upload_time, s->download_time, radio);
  outcome.local_energy_mj = dev.local_energy_mj(s->kind, s->executed, radio);
  outcome.traffic = s->conn->traffic();
  outcome.env_id = s->env->id();
  outcome.code_cache_hit = s->cache_hit;
  outcome.queue_wait = s->queue_wait;
  outcome.dispatch_attempts = s->dispatch_attempts;
  outcome.connect_attempts = s->connect_attempts;
  outcome.recovered = s->recovered;
  outcome.radio = config_.link.name;
  outcome.resumed = s->resumed;
  outcome.tenant = s->tenant;
  outcome.qos_class = s->klass;
  outcome.deadline_missed =
      s->deadline > 0 && outcome.response > s->deadline;
  env_traffic_[s->env->id()].merge(s->conn->traffic());

  SessionMetrics& sm = session_metrics_;
  const std::size_t klass = qos::class_index(s->klass);
  const double response_ms = sim::to_millis(outcome.response);
  resolve(sm.completed, metrics_, "sessions.completed").inc();
  resolve(sm.qos_completed[klass], metrics_, "qos.completed.",
          qos::to_string(s->klass))
      .inc();
  if (outcome.deadline_missed) {
    resolve(sm.deadline_missed, metrics_, "qos.deadline.missed").inc();
  }
  if (s->cache_hit) {
    resolve(sm.cache_hits, metrics_, "sessions.cache_hits").inc();
  }
  if (s->recovered) {
    resolve(sm.recovered, metrics_, "sessions.recovered").inc();
  }
  resolve(sm.response_ms, metrics_, "session.response_ms")
      .observe(response_ms);
  resolve(sm.qos_response_ms[klass], metrics_, "qos.response_ms.",
          qos::to_string(s->klass))
      .observe(response_ms);
  if (admission_ != nullptr) {
    // Goodput latency: responses of sessions that made it through
    // admission (the saturation bench's p99-of-accepted curve).
    resolve(sm.accepted_response_ms, metrics_, "session.accepted.response_ms")
        .observe(response_ms);
  }
  if (s->span_session != obs::kNoSpan) {
    trace_.annotate(s->span_session, "env_id",
                    static_cast<std::uint64_t>(s->env->id()));
    trace_.annotate(s->span_session, "cache_hit",
                    static_cast<std::uint64_t>(s->cache_hit ? 1 : 0));
    if (s->recovered) {
      trace_.annotate(s->span_session, "recovered", std::uint64_t{1});
    }
    trace_.annotate(s->span_session, "speedup", outcome.speedup);
    if (outcome.deadline_missed) {
      trace_.annotate(s->span_session, "deadline_missed", std::uint64_t{1});
    }
    trace_.end(s->span_session, simulator.now());
  }

  record_outcome(s->request.sequence, std::move(outcome));

  unbind_session(*s);
  finish_session(*s);
  if (completion_observer_) {
    completion_observer_(outcomes_[s->request.sequence]);
  }

  if (config_.adaptive_offloading) {
    DecisionState& history = decisions_[s->app_id()];
    const double remote_s =
        sim::to_seconds(outcomes_[s->request.sequence].response);
    const double local_s =
        sim::to_seconds(outcomes_[s->request.sequence].local_time);
    history.ewma_remote_s = history.samples == 0
                                ? remote_s
                                : 0.7 * history.ewma_remote_s +
                                      0.3 * remote_s;
    history.ewma_local_s = history.ewma_local_s == 0
                               ? local_s
                               : 0.7 * history.ewma_local_s + 0.3 * local_s;
    ++history.samples;
  }
}

// ---------------------------------------------------------------------
// Fault handling and recovery

void Platform::arm_mobility_pump() {
  if (config_.mobility.empty()) return;
  // Each run replays the plan from the base radio; a previous run's
  // handoffs must not leak into this one.
  config_.link = base_link_;
  link_->set_config(base_link_);
  link_down_until_ = 0;
  sim::Simulator& simulator = server_->simulator();
  const sim::SimTime start = simulator.now();
  for (const HandoffEvent& event : config_.mobility) {
    simulator.schedule_at(start + event.at,
                          [this, event]() { apply_handoff(event); });
  }
}

void Platform::apply_handoff(const HandoffEvent& event) {
  sim::Simulator& simulator = server_->simulator();
  const std::string from = config_.link.name;
  config_.link = event.to;
  link_->set_config(event.to);
  metrics_.counter("mobility.handoffs").inc();
  metrics_
      .counter(std::string("mobility.handoff.") + from + "_to_" +
               event.to.name)
      .inc();
  if (event.outage > 0) {
    link_down_until_ =
        std::max(link_down_until_, simulator.now() + event.outage);
    metrics_.counter("mobility.outages").inc();
    metrics_.histogram("mobility.outage_ms")
        .observe(sim::to_millis(event.outage));
  }
  if (trace_.enabled()) {
    trace_.instant(kPlatformTrack,
                   ("handoff " + from + "→" + event.to.name).c_str(),
                   "mobility", simulator.now());
  }
}

void Platform::note_resumption(SessionState& s) {
  if (s.resumed) return;  // count each session once, however often it stalls
  s.resumed = true;
  metrics_.counter("mobility.sessions_resumed").inc();
  if (s.span_session != obs::kNoSpan) {
    trace_.annotate(s.span_session, "resumed", std::uint64_t{1});
  }
}

void Platform::crash_env(Env& env) {
  if (!env.rec.live()) return;
  metrics_.counter("env.crashes").inc();
  teardown_env(env, /*crashed=*/true);
  // Sessions bound to the dead environment: neutralize every scheduled
  // continuation (epoch bump) and give back what they held — Monitor job
  // slots and staged one-shot files die with the container. The sessions
  // stay *bound*: the Monitor has not discovered the crash yet, and the
  // session-env-liveness invariant tolerates exactly that window.
  for (const auto& s : live_sessions_) {
    if (s->done || s->env != &env) continue;
    ++s->epoch;
    if (trace_.enabled()) {
      trace_.instant(s->request.sequence + 1, "env_crash", "fault",
                     server_->simulator().now());
    }
    if (s->computing) {
      server_->monitor().job_finished(s->klass);
      s->computing = false;
    }
    if (s->staged) {
      server_->shared_layer().release_request_files(s->request.sequence);
      s->staged = false;
    }
    touched(*s);
  }
  server_->monitor().notify_crash(env.id());
}

void Platform::recover_env(std::uint32_t env_id) {
  // The Monitor's health sweep found the corpse (the crash is no longer
  // pending). Without crash recovery the platform does nothing —
  // sessions stay bound to the dead CID and the invariant harness is
  // what notices.
  if (oracle_ != nullptr) oracle_->touch_env(env_id);
  if (!config_.crash_recovery) return;
  if (env_table_.find(env_id) == nullptr) return;
  Env& dead = env_of(env_id);
  std::vector<std::shared_ptr<SessionState>> victims;
  for (const auto& s : live_sessions_) {
    if (!s->done && s->env == &dead) victims.push_back(s);
  }
  for (const auto& s : victims) {
    if (dead.rec.inflight > 0) --dead.rec.inflight;
    s->env = nullptr;
    ++s->epoch;
    touched(*s);
    if (s->dispatch_attempts >= config_.max_redispatch) {
      reject_session(s, RejectReason::kRedispatchExhausted);
      continue;
    }
    // Re-dispatch over the existing connection: the device re-sends its
    // request and the session restarts from runtime preparation.
    s->recovered = true;
    s->connected_at = server_->simulator().now();
    {
      SessionScope scope(*this, *s);
      begin_phase(*s, "redispatch");  // closes the span the crash cut off
    }
    dispatch(s, server_->calibration().dispatcher_cost);
  }
}

void Platform::on_tenant_blocked(const std::string& tenant,
                                 sim::SimTime now) {
  // The violation ledger crossed the threshold: evict every live session
  // of the offender *now*, so a blocked tenant consumes zero container
  // time past block onset (the rac-blocked-isolation invariant).
  if (oracle_ != nullptr) oracle_->touch_tenant(tenant);
  if (trace_.enabled()) {
    const obs::SpanId mark =
        trace_.instant(kPlatformTrack, "rac_block", "rac", now);
    trace_.annotate(mark, "tenant", tenant);
  }
  // Collect first: reject_session mutates live_sessions_.
  std::vector<std::shared_ptr<SessionState>> victims;
  for (const auto& s : live_sessions_) {
    if (!s->done && s->tenant == tenant) victims.push_back(s);
  }
  for (const auto& s : victims) {
    ++s->epoch;  // neutralize every scheduled continuation
    if (s->span_session != obs::kNoSpan) {
      trace_.annotate(s->span_session, "rac_swept", std::uint64_t{1});
    }
    reject_session(s, RejectReason::kAccessDenied);
  }
}

void Platform::reject_session(const std::shared_ptr<SessionState>& s,
                              RejectReason reason) {
  if (s->done) return;
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, *s);
  SessionMetrics& sm = session_metrics_;
  resolve(sm.rejected, metrics_, "sessions.rejected").inc();
  resolve(sm.rejected_by_reason[static_cast<std::size_t>(reason)], metrics_,
          "sessions.rejected.", to_string(reason))
      .inc();
  resolve(sm.qos_rejected[qos::class_index(s->klass)], metrics_,
          "qos.rejected.", qos::to_string(s->klass))
      .inc();
  // Typed reject reply: the device learns *why* it was turned away
  // (back-off hint) at the cost of one small downlink frame.  Sessions
  // whose connection never established — a connect that failed, or one
  // still queued when the RAC turned the session away — have nowhere to
  // send it.
  if (reason != RejectReason::kConnectFailed && s->conn.has_value() &&
      s->conn->established()) {
    s->conn->download(
        net::Message{net::MessageType::kReject, net::kRejectReplyBytes});
  }
  end_phase(*s);
  if (s->span_session != obs::kNoSpan) {
    trace_.annotate(s->span_session, "rejected", std::uint64_t{1});
    trace_.annotate(s->span_session, "reject_reason", to_string(reason));
    trace_.end(s->span_session, simulator.now());
  }
  RequestOutcome outcome;
  outcome.request = s->request;
  outcome.phases = s->phases;
  outcome.completed_at = simulator.now();
  outcome.response = simulator.now() - s->request.arrival;
  outcome.rejected = true;
  outcome.reject_reason = reason;
  outcome.queue_wait = s->queue_wait;
  outcome.tenant = s->tenant;
  outcome.qos_class = s->klass;
  outcome.radio = config_.link.name;
  outcome.resumed = s->resumed;
  outcome.traffic = s->conn ? s->conn->traffic() : net::TrafficAccount{};
  outcome.dispatch_attempts = s->dispatch_attempts;
  outcome.connect_attempts = s->connect_attempts;
  record_outcome(s->request.sequence, std::move(outcome));
  unbind_session(*s);
  finish_session(*s);
  if (completion_observer_) {
    completion_observer_(outcomes_[s->request.sequence]);
  }
}

void Platform::unbind_session(SessionState& s) {
  if (s.computing) {
    server_->monitor().job_finished(s.klass);
    s.computing = false;
  }
  if (s.staged) {
    server_->shared_layer().release_request_files(s.request.sequence);
    s.staged = false;
  }
  if (s.env != nullptr) {
    EnvRecord& rec = s.env->rec;
    if (rec.inflight > 0) --rec.inflight;
    if (rec.ready() && rec.inflight == 0) {
      if (rec.state() == EnvState::kDraining) {
        // Last in-flight session left a draining environment: reclaim.
        finish_drain(*s.env);
      } else {
        env_table_.transition(rec.id, EnvState::kWarmIdle,
                              server_->simulator().now());
        schedule_reclaim(*s.env);
      }
    }
    s.env = nullptr;
  }
}

void Platform::finish_session(SessionState& s) {
  s.done = true;
  ++completed_;
  for (auto it = live_sessions_.begin(); it != live_sessions_.end(); ++it) {
    if (it->get() == &s) {
      live_sessions_.erase(it);
      break;
    }
  }
  release_slots(s);
  touched(s);
  maybe_start_queued();
}

void Platform::touched(const SessionState& s) {
  if (oracle_ != nullptr) oracle_->touch(s);
}

void Platform::release_slots(SessionState& s) {
  if (s.rac_slot) {
    server_->access().release(s.tenant);
    s.rac_slot = false;
  }
  if (admission_ == nullptr) return;
  if (s.queued) {
    // Finished while still waiting in a class queue (rejected after the
    // access controller blocked its app, or stranded); pull it out of
    // the scheduler so no stale id is ever echoed by pop_queued().
    admission_->abandon_queued(s.klass, s.tenant, s.request.sequence);
    queued_sessions_.erase(s.request.sequence);
    s.queued = false;
  }
  if (s.admitted) {
    admission_->release();
    s.admitted = false;
  }
}

// ---------------------------------------------------------------------

double Platform::memory_time_byte_seconds() const {
  const sim::SimTime now =
      server_ ? static_cast<const CloudServer&>(*server_).simulator().now()
              : 0;
  return env_table_.memory_byte_seconds(now);
}

ProvisionStats Platform::measure_provision() {
  assert(envs_.empty() && "measure_provision needs a fresh platform");
  config_.env_idle_timeout = 0;  // a probe environment is never reclaimed
  sim::Simulator& simulator = server_->simulator();
  Env& env = provision_env("probe", simulator.now());
  simulator.run();
  assert(env.rec.ready());

  ProvisionStats stats;
  stats.setup_time = env.rec.ready_at - env.rec.provisioned_at;
  const Calibration& cal = server_->calibration();
  if (env.is_vm()) {
    stats.memory_configured = cal.vm_memory;
    stats.memory_usage =
        android::device_userspace_boot(android::OsProfile::kStock)
            .boot_memory;
  } else {
    stats.memory_configured = config_.customized_os
                                  ? cal.cac_opt_memory
                                  : cal.cac_plain_memory;
    stats.memory_usage = env.cac->boot_memory();
  }
  stats.disk_bytes = env.disk_bytes;
  stats.shared_disk_bytes = config_.shared_resource_layer
                                ? server_->shared_layer().shared_bytes()
                                : 0;
  return stats;
}

}  // namespace rattrap::core
