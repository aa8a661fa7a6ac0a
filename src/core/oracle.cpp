#include "core/oracle.hpp"

#include <algorithm>

#include "core/platform_state.hpp"

namespace rattrap::core {

namespace {
std::size_t slot(EnvState state) { return static_cast<std::size_t>(state); }
}  // namespace

InvariantOracle::InvariantOracle(Platform& platform)
    : platform_(platform), checker_(platform.invariants_) {
  using O = InvariantOracle;
  invariants_ = {
      // 1. No session is bound to a dead environment — except during the
      //    Monitor's detection window (crash reported, sweep not yet run)
      //    and for provision-failure envs, whose rejection is a scheduled
      //    zero-delay event.
      {"session-env-liveness", Scope::kEnv, &O::session_env_liveness, {}},
      // 2. The AID→CID affinity map only references live containers.
      {"affinity-live", Scope::kEnv, &O::affinity_live, {}},
      // 3. The shared tmpfs holds exactly the live offload files.
      {"tmpfs-accounting", Scope::kPlatform, &O::tmpfs_accounting, {}},
      // 4. "Burn after reading" actually frees: one file per staged
      //    request.
      {"burn-after-reading", Scope::kPlatform, &O::burn_after_reading, {}},
      // 5. Monitor job slots match the sessions actually computing.
      {"monitor-jobs", Scope::kPlatform, &O::monitor_jobs, {}},
      // 6. Every environment's inflight pin count equals its bound
      //    sessions.
      {"inflight-consistency", Scope::kEnv, &O::inflight_consistency, {}},
      // 7. A live, ready container-backed environment has a booted CAC
      //    underneath.
      {"db-consistency", Scope::kEnv, &O::db_consistency, {}},
      // 12. Lifecycle-state conservation: no illegal transition was ever
      //     attempted and the per-state counts equal the records' states
      //     (docs/ELASTIC.md).
      {"lifecycle-state", Scope::kPlatform, &O::lifecycle_state, {}},
      // 13. The elastic memory budget is a hard ceiling on the warm pool:
      //     committed pool memory (booting + warm) never exceeds it.
      {"elastic-memory-budget", Scope::kPlatform, &O::elastic_memory_budget,
       {}},
      // 14. A blocked tenant consumes zero container time after block
      //     onset: the on_block sweep leaves no live session of a tenant
      //     inside its block window (docs/RAC.md).
      {"rac-blocked-isolation", Scope::kTenant, &O::rac_blocked_isolation,
       {}},
  };
  if (platform.admission_ != nullptr) {
    // 8. The class queues never exceed their capacity, and the
    //    scheduler's depth matches the sessions tracked as queued.
    invariants_.push_back({"admission-queue-bound", Scope::kPlatform,
                           &O::admission_queue_bound, {}});
    // 9. In-service accounting: the controller's slots equal the admitted
    //    live sessions, and never exceed the configured ceiling.
    invariants_.push_back({"admission-in-service", Scope::kPlatform,
                           &O::admission_in_service, {}});
    // 10. DRR bookkeeping conserves quanta: per tenant per lane,
    //     granted == served + live deficit + forfeited (docs/QOS.md).
    invariants_.push_back({"qos-drr-conservation", Scope::kPlatform,
                           &O::qos_drr_conservation, {}});
    // 11. Anti-starvation promotion is bounded: a run of lower-class pops
    //     while a higher lane waits never exceeds the configured burst.
    invariants_.push_back({"qos-priority-burst", Scope::kPlatform,
                           &O::qos_priority_burst, {}});
  }
  checker_.set_invariant_count(invariants_.size());
  platform.env_table_.set_touches(&touched_envs_);
  platform.server_->warehouse().set_touches(&touched_envs_);
}

InvariantOracle::~InvariantOracle() {
  platform_.env_table_.set_touches(nullptr);
  platform_.server_->warehouse().set_touches(nullptr);
}

// ---------------------------------------------------------------------
// Books

void InvariantOracle::Ledger::add(std::uint64_t sequence,
                                  const SessionSeen& seen, int sign) {
  if (seen.env != 0) {
    if (sign > 0) {
      bound[seen.env].push_back(sequence);
    } else if (std::vector<std::uint64_t>* on_env = bound.find(seen.env)) {
      std::erase(*on_env, sequence);
      if (on_env->empty()) bound.erase(seen.env);
    }
  }
  const auto step = [sign](std::uint32_t& count) {
    count = sign > 0 ? count + 1 : count - 1;
  };
  if (seen.computing) step(computing);
  if (seen.admitted) step(admitted);
  if (seen.queued) step(queued);
  if (live_by_tenant.size() <= seen.tenant) {
    live_by_tenant.resize(seen.tenant + 1);
  }
  step(live_by_tenant[seen.tenant]);
}

std::uint32_t InvariantOracle::tenant_index(const std::string& tenant) {
  const auto [it, inserted] = tenant_ids_.try_emplace(
      tenant, static_cast<std::uint32_t>(tenants_.size()));
  if (inserted) tenants_.push_back(tenant);
  return it->second;
}

InvariantOracle::SessionSeen InvariantOracle::seen(
    const Platform::SessionState& s, std::uint32_t tenant) {
  SessionSeen seen;
  seen.env = s.env != nullptr ? s.env->id : 0;
  seen.tenant = tenant;
  seen.computing = s.computing;
  seen.admitted = s.admitted;
  seen.queued = s.queued;
  return seen;
}

void InvariantOracle::touch(const Platform::SessionState& s) {
  const std::uint64_t sequence = s.request.sequence;
  const auto it = ledger_.sessions.find(sequence);
  if (!s.live) {  // ended (or run locally, never in the books)
    if (it == ledger_.sessions.end()) return;
    const SessionSeen was = it->second;
    ledger_.sessions.erase(it);
    ledger_.add(sequence, was, -1);
    if (was.env != 0) touch_env(was.env);
    return;
  }
  const bool fresh = it == ledger_.sessions.end();
  const SessionSeen now =
      seen(s, fresh ? tenant_index(s.tenant) : it->second.tenant);
  EnvId was_env = 0;
  if (fresh) {
    ledger_.sessions.emplace(sequence, now);
    touched_tenants_.push_back(now.tenant);
  } else {
    if (it->second == now) return;
    was_env = it->second.env;
    ledger_.add(sequence, it->second, -1);
    it->second = now;
  }
  ledger_.add(sequence, now, +1);
  if (was_env == now.env) return;
  if (was_env != 0) touch_env(was_env);
  if (now.env != 0) touch_env(now.env);
}

void InvariantOracle::touch_tenant(const std::string& tenant) {
  touched_tenants_.push_back(tenant_index(tenant));
}

void InvariantOracle::settle_envs() {
  std::sort(touched_envs_.begin(), touched_envs_.end());
  touched_envs_.erase(std::unique(touched_envs_.begin(), touched_envs_.end()),
                      touched_envs_.end());
  const EnvTable& table = platform_.env_table_;
  for (const EnvId id : touched_envs_) {
    const EnvRecord* rec = table.find(id);
    const EnvSeen* was = envs_seen_.find(id);
    if (rec == nullptr && was == nullptr) continue;  // erased, or not issued
    if (was != nullptr) {
      --ledger_.states[slot(was->state)];
      ledger_.pool_bytes -= was->pool_bytes;
    }
    if (rec == nullptr) {  // erased: it stays in the books as reclaimed
      ++ledger_.states[slot(EnvState::kReclaimed)];
      envs_seen_.erase(id);
      continue;
    }
    const EnvSeen now{rec->state(), table.pooled(id) ? rec->memory_bytes : 0};
    envs_seen_.insert_or_assign(id, now);
    ++ledger_.states[slot(now.state)];
    ledger_.pool_bytes += now.pool_bytes;
  }
}

InvariantOracle::Ledger InvariantOracle::recount() {
  Ledger fresh;
  platform_.for_each_live([&](const Platform::SessionState& s) {
    const SessionSeen now = seen(s, tenant_index(s.tenant));
    fresh.sessions.emplace(s.request.sequence, now);
    fresh.add(s.request.sequence, now, +1);
  });
  const EnvTable& table = platform_.env_table_;
  // An erased record is reclaimed.
  fresh.states[slot(EnvState::kReclaimed)] =
      table.size() - table.records().size();
  for (const EnvRecord& rec : table.records()) {
    ++fresh.states[slot(rec.state())];
  }
  for (const EnvId id : table.pool()) {
    fresh.pool_bytes += table.find(id)->memory_bytes;
  }
  return fresh;
}

// ---------------------------------------------------------------------
// Passes

void InvariantOracle::update_open() {
  settle_envs();
  std::sort(touched_tenants_.begin(), touched_tenants_.end());
  touched_tenants_.erase(
      std::unique(touched_tenants_.begin(), touched_tenants_.end()),
      touched_tenants_.end());
  for (Invariant& invariant : invariants_) {
    candidates_.clear();
    switch (invariant.scope) {
      case Scope::kEnv:
        candidates_.assign(touched_envs_.begin(), touched_envs_.end());
        break;
      case Scope::kTenant:
        candidates_.assign(touched_tenants_.begin(), touched_tenants_.end());
        break;
      case Scope::kPlatform:
        candidates_.push_back(0);
        break;
    }
    // Open pairs are re-checked every event: time alone (a block window
    // running out) or a repair no touch point reports can close them.
    if (invariant.scope != Scope::kPlatform && !invariant.open.empty()) {
      for (const auto& [entity, detail] : invariant.open) {
        (void)detail;
        candidates_.push_back(entity);
      }
      std::sort(candidates_.begin(), candidates_.end());
      candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                        candidates_.end());
    }
    for (const std::uint64_t entity : candidates_) {
      if (auto detail = (this->*invariant.check)(entity, ledger_)) {
        invariant.open.insert_or_assign(entity, std::move(*detail));
      } else {
        invariant.open.erase(entity);
      }
    }
  }
  touched_envs_.clear();
  touched_tenants_.clear();
}

void InvariantOracle::after_event() {
  checker_.begin_check();
  update_open();
  const sim::SimTime now = platform_.server_->simulator().now();
  for (const Invariant& invariant : invariants_) {
    if (invariant.open.empty()) continue;
    // The lowest violating entity: the one a full sweep reports.
    checker_.record(invariant.name, invariant.open.begin()->second, now);
  }
  if (sweep_into_ != nullptr) full_sweep(*sweep_into_);
}

std::vector<std::uint64_t> InvariantOracle::all_entities(
    Scope scope, const Ledger& l) const {
  std::vector<std::uint64_t> entities;
  switch (scope) {
    case Scope::kEnv: {
      // The held records, the ids sessions are bound to and the ids the
      // warehouse maps: every environment predicate holds on any other.
      for (const EnvRecord& rec : platform_.env_table_.records()) {
        entities.push_back(rec.id);
      }
      l.bound.for_each([&](EnvId id, const auto&) { entities.push_back(id); });
      platform_.server_->warehouse().for_each_entry(
          [&](const CacheEntry& entry) {
            entities.insert(entities.end(), entry.containers.begin(),
                            entry.containers.end());
          });
      break;
    }
    case Scope::kTenant:
      for (std::uint64_t t = 0; t < l.live_by_tenant.size(); ++t) {
        entities.push_back(t);
      }
      break;
    case Scope::kPlatform:
      entities.push_back(0);
      break;
  }
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()),
                 entities.end());
  return entities;
}

std::vector<std::map<std::uint64_t, std::string>> InvariantOracle::sweep(
    const Ledger& l) const {
  std::vector<std::map<std::uint64_t, std::string>> open(invariants_.size());
  for (std::size_t i = 0; i < invariants_.size(); ++i) {
    const Invariant& invariant = invariants_[i];
    for (const std::uint64_t entity : all_entities(invariant.scope, l)) {
      if (auto detail = (this->*invariant.check)(entity, l)) {
        open[i].emplace(entity, std::move(*detail));
      }
    }
  }
  return open;
}

void InvariantOracle::full_sweep(InvariantChecker& into) {
  const std::vector<std::map<std::uint64_t, std::string>> open =
      sweep(recount());
  into.begin_check();
  const sim::SimTime now = platform_.server_->simulator().now();
  for (std::size_t i = 0; i < invariants_.size(); ++i) {
    if (open[i].empty()) continue;
    into.record(invariants_[i].name, open[i].begin()->second, now);
  }
}

void InvariantOracle::quiescent_sweep() {
  update_open();
  Ledger fresh = recount();
  std::vector<std::map<std::uint64_t, std::string>> open = sweep(fresh);
  // The per-env, per-tenant and count books are sums over the session
  // books, so comparing those (and the record books) covers them.
  std::string drift;
  if (fresh.sessions != ledger_.sessions) {
    drift = "session books";
  } else if (fresh.states != ledger_.states ||
             fresh.pool_bytes != ledger_.pool_bytes) {
    drift = "environment books";
  }
  for (std::size_t i = 0; drift.empty() && i < invariants_.size(); ++i) {
    if (open[i] != invariants_[i].open) {
      drift = std::string("open violations of ") + invariants_[i].name;
    }
  }
  if (drift.empty()) return;
  checker_.record("oracle-drift",
                  "a touch point was missed: " + drift +
                      " disagree with a recount",
                  platform_.server_->simulator().now());
  ledger_ = std::move(fresh);
  for (std::size_t i = 0; i < invariants_.size(); ++i) {
    invariants_[i].open = std::move(open[i]);
  }
  const EnvTable& table = platform_.env_table_;
  envs_seen_.clear();
  for (const EnvRecord& rec : table.records()) {
    envs_seen_.insert_or_assign(
        rec.id, {rec.state(), table.pooled(rec.id) ? rec.memory_bytes : 0});
  }
}

// ---------------------------------------------------------------------
// Predicates

std::optional<std::string> InvariantOracle::session_env_liveness(
    std::uint64_t env, const Ledger& l) const {
  const auto id = static_cast<EnvId>(env);
  if (l.bound_count(id) == 0) return std::nullopt;
  // A bound session pins its record, so an erased one is always a
  // violation; a held dead one is not while its crash awaits detection.
  const EnvRecord* rec = platform_.env_table_.find(id);
  if (rec != nullptr && (rec->live() || rec->failed ||
                         platform_.server_->monitor().crash_pending(id))) {
    return std::nullopt;
  }
  return "request " + std::to_string(std::ranges::min(*l.bound.find(id))) +
         " bound to " + (rec != nullptr ? "dead" : "erased") + " env " +
         std::to_string(env);
}

std::optional<std::string> InvariantOracle::affinity_live(
    std::uint64_t env, const Ledger& /*l*/) const {
  const EnvId id = static_cast<EnvId>(env);
  const EnvRecord* rec = platform_.env_table_.find(id);
  if (rec != nullptr && rec->live()) return std::nullopt;
  std::optional<std::string> violation;
  platform_.server_->warehouse().for_each_entry([&](const CacheEntry& entry) {
    if (violation.has_value() || !entry.containers.contains(id)) return;
    violation = entry.reference + " maps to dead env " + std::to_string(id);
  });
  return violation;
}

std::optional<std::string> InvariantOracle::tmpfs_accounting(
    std::uint64_t, const Ledger& /*l*/) const {
  const SharedResourceLayer& shared = platform_.server_->shared_layer();
  if (shared.offload_io().used_bytes() == shared.staged_bytes()) {
    return std::nullopt;
  }
  return "tmpfs holds " + std::to_string(shared.offload_io().used_bytes()) +
         " bytes, ledger says " + std::to_string(shared.staged_bytes());
}

std::optional<std::string> InvariantOracle::burn_after_reading(
    std::uint64_t, const Ledger& /*l*/) const {
  const SharedResourceLayer& shared = platform_.server_->shared_layer();
  if (shared.offload_io().file_count() == shared.staged_count()) {
    return std::nullopt;
  }
  return std::to_string(shared.offload_io().file_count()) + " files for " +
         std::to_string(shared.staged_count()) + " staged requests";
}

std::optional<std::string> InvariantOracle::monitor_jobs(
    std::uint64_t, const Ledger& l) const {
  const std::uint32_t running = platform_.server_->monitor().running_jobs();
  if (l.computing == running) return std::nullopt;
  return "monitor reports " + std::to_string(running) + " jobs, " +
         std::to_string(l.computing) + " sessions computing";
}

std::optional<std::string> InvariantOracle::inflight_consistency(
    std::uint64_t env, const Ledger& l) const {
  const EnvRecord* rec = platform_.env_table_.find(static_cast<EnvId>(env));
  if (rec == nullptr) return std::nullopt;
  const std::size_t bound = l.bound_count(static_cast<EnvId>(env));
  if (bound == rec->inflight) return std::nullopt;
  return "env " + std::to_string(env) + " pins " +
         std::to_string(rec->inflight) + " sessions, " +
         std::to_string(bound) + " bound";
}

std::optional<std::string> InvariantOracle::db_consistency(
    std::uint64_t env, const Ledger& /*l*/) const {
  const EnvRecord* rec = platform_.env_table_.find(static_cast<EnvId>(env));
  if (rec == nullptr || !rec->ready()) return std::nullopt;
  if (rec->is_vm() || (rec->cac && rec->cac->booted())) return std::nullopt;
  return "env " + std::to_string(env) + " serving without a booted container";
}

std::optional<std::string> InvariantOracle::lifecycle_state(
    std::uint64_t, const Ledger& l) const {
  const EnvTable& table = platform_.env_table_;
  if (!table.first_error().empty()) {
    return "lifecycle error: " + table.first_error();
  }
  for (std::size_t s = 0; s < kEnvStateCount; ++s) {
    const auto state = static_cast<EnvState>(s);
    if (table.count(state) == l.states[s]) continue;
    return std::string("count of ") + to_string(state) + " is " +
           std::to_string(table.count(state)) + ", records hold " +
           std::to_string(l.states[s]);
  }
  return std::nullopt;
}

std::optional<std::string> InvariantOracle::elastic_memory_budget(
    std::uint64_t, const Ledger& l) const {
  if (platform_.pool_controller_ == nullptr) return std::nullopt;
  const std::uint64_t budget =
      platform_.pool_controller_->config().memory_budget_bytes;
  if (budget == 0) return std::nullopt;
  const std::uint64_t ledger = platform_.env_table_.pool_bytes();
  if (ledger != l.pool_bytes) {
    return "pool ledger says " + std::to_string(ledger) +
           " bytes, pooled records hold " + std::to_string(l.pool_bytes);
  }
  if (l.pool_bytes <= budget) return std::nullopt;
  return "warm pool commits " + std::to_string(l.pool_bytes) +
         " bytes, budget is " + std::to_string(budget);
}

std::optional<std::string> InvariantOracle::rac_blocked_isolation(
    std::uint64_t tenant, const Ledger& l) const {
  if (tenant >= l.live_by_tenant.size() || l.live_by_tenant[tenant] == 0) {
    return std::nullopt;
  }
  const std::string& name = tenants_[tenant];
  if (!platform_.server_->access().blocked_at(
          name, platform_.server_->simulator().now())) {
    return std::nullopt;
  }
  std::uint64_t first = UINT64_MAX;
  for (const auto& [sequence, seen] : l.sessions) {
    if (seen.tenant == tenant) first = std::min(first, sequence);
  }
  return "request " + std::to_string(first) + " of blocked tenant " + name +
         " still live";
}

std::optional<std::string> InvariantOracle::admission_queue_bound(
    std::uint64_t, const Ledger& l) const {
  const AdmissionController& admission = *platform_.admission_;
  if (l.queued != admission.queue_depth()) {
    return "scheduler holds " + std::to_string(admission.queue_depth()) +
           " queued, platform tracks " + std::to_string(l.queued);
  }
  const qos::QosScheduler& scheduler = admission.scheduler();
  for (const qos::PriorityClass klass : qos::kAllClasses) {
    if (scheduler.depth(klass) > scheduler.capacity(klass)) {
      return std::string(qos::to_string(klass)) + " lane holds " +
             std::to_string(scheduler.depth(klass)) +
             " sessions, capacity " +
             std::to_string(scheduler.capacity(klass));
    }
  }
  return std::nullopt;
}

std::optional<std::string> InvariantOracle::admission_in_service(
    std::uint64_t, const Ledger& l) const {
  const AdmissionController& admission = *platform_.admission_;
  if (l.admitted != admission.in_service()) {
    return "controller ledger says " + std::to_string(admission.in_service()) +
           " in service, " + std::to_string(l.admitted) +
           " sessions hold slots";
  }
  if (l.admitted > admission.max_in_service()) {
    return std::to_string(l.admitted) +
           " in-service sessions exceed the limit of " +
           std::to_string(admission.max_in_service());
  }
  return std::nullopt;
}

std::optional<std::string> InvariantOracle::qos_drr_conservation(
    std::uint64_t, const Ledger& /*l*/) const {
  return platform_.admission_->scheduler().check_conservation();
}

std::optional<std::string> InvariantOracle::qos_priority_burst(
    std::uint64_t, const Ledger& /*l*/) const {
  const qos::QosScheduler& scheduler = platform_.admission_->scheduler();
  const std::uint32_t burst = std::max(1u, scheduler.config().starvation_burst);
  if (scheduler.max_lower_run() <= burst) return std::nullopt;
  return "lower-class run of " + std::to_string(scheduler.max_lower_run()) +
         " exceeds the starvation burst of " + std::to_string(burst);
}

}  // namespace rattrap::core
