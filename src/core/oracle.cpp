#include "core/oracle.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/platform_state.hpp"

namespace rattrap::core {

namespace {
std::size_t slot(EnvState state) { return static_cast<std::size_t>(state); }
}  // namespace

InvariantOracle::InvariantOracle(Platform& platform)
    : checker_(platform.invariants_),
      table_(platform.capacity_.table()),
      server_(*platform.server_),
      admission_(platform.admission_.get()),
      pool_budget_(platform.capacity_.memory_budget()),
      platform_(platform) {
  using O = InvariantOracle;
  invariants_ = {
      // 1. No session is bound to a dead environment — except during the
      //    Monitor's detection window (crash reported, sweep not yet run)
      //    and for provision-failure envs, whose rejection is a scheduled
      //    zero-delay event.
      {"session-env-liveness", Scope::kEnv,
       &O::env_check<&O::session_env_liveness>, {}},
      // 2. The AID→CID affinity map only references live containers.
      {"affinity-live", Scope::kEnv, &O::env_check<&O::affinity_live>, {}},
      // 3. The shared tmpfs holds exactly the live offload files.
      {"tmpfs-accounting", Scope::kPlatform, &O::tmpfs_accounting, {}},
      // 4. "Burn after reading" actually frees: one file per staged
      //    request.
      {"burn-after-reading", Scope::kPlatform, &O::burn_after_reading, {}},
      // 5. Monitor job slots match the sessions actually computing.
      {"monitor-jobs", Scope::kPlatform, &O::monitor_jobs, {}},
      // 6. Every environment's inflight pin count equals its bound
      //    sessions.
      {"inflight-consistency", Scope::kEnv,
       &O::env_check<&O::inflight_consistency>, {}},
      // 7. A live, ready container-backed environment has a booted CAC
      //    underneath.
      {"db-consistency", Scope::kEnv, &O::env_check<&O::db_consistency>, {}},
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
  if (admission_ != nullptr) {
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
  platform.capacity_.table().set_touches(&touched_envs_);
  server_.warehouse().set_touches(&touched_envs_);
}

InvariantOracle::~InvariantOracle() {
  platform_.capacity_.table().set_touches(nullptr);
  server_.warehouse().set_touches(nullptr);
}

// ---------------------------------------------------------------------
// Predicates
//
// Each returns whether its invariant holds and, only where it does not
// and `detail` is given, writes what it saw.  They are inline: the fast
// path is their conjunction, with no detail asked for.

inline bool InvariantOracle::session_env_liveness(EnvId id,
                                                  const EnvRecord* rec,
                                                  std::uint32_t bound,
                                                  const Ledger& l,
                                                  std::string* detail) const {
  // A bound session pins its record, so an erased one is always a
  // violation; a held dead one is not while its crash awaits detection.
  if (bound == 0 || (rec != nullptr && (rec->live() || rec->failed ||
                                        server_.monitor().crash_pending(id)))) {
    return true;
  }
  if (detail != nullptr) {
    const std::uint64_t request = l.lowest_sequence(
        [id](const SessionSeen& seen) { return seen.env == id; });
    *detail = "request " + std::to_string(request) + " bound to " +
              (rec != nullptr ? "dead" : "erased") + " env " +
              std::to_string(id);
  }
  return false;
}

inline bool InvariantOracle::affinity_live(EnvId id, const EnvRecord* rec,
                                           std::uint32_t /*bound*/,
                                           const Ledger& /*l*/,
                                           std::string* detail) const {
  if ((rec != nullptr && rec->live()) ||
      server_.warehouse().mapping_count(id) == 0) {
    return true;
  }
  if (detail != nullptr) {
    server_.warehouse().for_each_entry([&](const CacheEntry& entry) {
      if (detail->empty() && entry.containers.contains(id)) {
        *detail = entry.reference + " maps to dead env " + std::to_string(id);
      }
    });
  }
  return false;
}

inline bool InvariantOracle::tmpfs_accounting(std::uint64_t,
                                              const Ledger& /*l*/,
                                              std::string* detail) const {
  const SharedResourceLayer& shared = server_.shared_layer();
  if (shared.offload_io().used_bytes() == shared.staged_bytes()) return true;
  if (detail != nullptr) {
    *detail = "tmpfs holds " +
              std::to_string(shared.offload_io().used_bytes()) +
              " bytes, ledger says " + std::to_string(shared.staged_bytes());
  }
  return false;
}

inline bool InvariantOracle::burn_after_reading(std::uint64_t,
                                                const Ledger& /*l*/,
                                                std::string* detail) const {
  const SharedResourceLayer& shared = server_.shared_layer();
  if (shared.offload_io().file_count() == shared.staged_count()) return true;
  if (detail != nullptr) {
    *detail = std::to_string(shared.offload_io().file_count()) +
              " files for " + std::to_string(shared.staged_count()) +
              " staged requests";
  }
  return false;
}

inline bool InvariantOracle::monitor_jobs(std::uint64_t, const Ledger& l,
                                          std::string* detail) const {
  const std::uint32_t running = server_.monitor().running_jobs();
  if (l.computing == running) return true;
  if (detail != nullptr) {
    *detail = "monitor reports " + std::to_string(running) + " jobs, " +
              std::to_string(l.computing) + " sessions computing";
  }
  return false;
}

inline bool InvariantOracle::inflight_consistency(EnvId id,
                                                  const EnvRecord* rec,
                                                  std::uint32_t bound,
                                                  const Ledger& /*l*/,
                                                  std::string* detail) const {
  if (rec == nullptr || bound == rec->inflight) return true;
  if (detail != nullptr) {
    *detail = "env " + std::to_string(id) + " pins " +
              std::to_string(rec->inflight) + " sessions, " +
              std::to_string(bound) + " bound";
  }
  return false;
}

inline bool InvariantOracle::db_consistency(EnvId id, const EnvRecord* rec,
                                            std::uint32_t /*bound*/,
                                            const Ledger& /*l*/,
                                            std::string* detail) const {
  if (rec == nullptr || !rec->ready() || rec->is_vm() ||
      (rec->cac && rec->cac->booted())) {
    return true;
  }
  if (detail != nullptr) {
    *detail = "env " + std::to_string(id) +
              " serving without a booted container";
  }
  return false;
}

inline bool InvariantOracle::lifecycle_state(std::uint64_t, const Ledger& l,
                                             std::string* detail) const {
  if (!table_.first_error().empty()) {
    if (detail != nullptr) *detail = "lifecycle error: " + table_.first_error();
    return false;
  }
  for (std::size_t s = 0; s < kEnvStateCount; ++s) {
    const auto state = static_cast<EnvState>(s);
    if (table_.count(state) == l.states[s]) continue;
    if (detail != nullptr) {
      *detail = std::string("count of ") + to_string(state) + " is " +
                std::to_string(table_.count(state)) + ", records hold " +
                std::to_string(l.states[s]);
    }
    return false;
  }
  return true;
}

inline bool InvariantOracle::elastic_memory_budget(std::uint64_t,
                                                   const Ledger& l,
                                                   std::string* detail) const {
  if (pool_budget_ == 0) return true;
  const std::uint64_t ledger = table_.pool_bytes();
  if (ledger != l.pool_bytes) {
    if (detail != nullptr) {
      *detail = "pool ledger says " + std::to_string(ledger) +
                " bytes, pooled records hold " + std::to_string(l.pool_bytes);
    }
    return false;
  }
  if (l.pool_bytes <= pool_budget_) return true;
  if (detail != nullptr) {
    *detail = "warm pool commits " + std::to_string(l.pool_bytes) +
              " bytes, budget is " + std::to_string(pool_budget_);
  }
  return false;
}

inline bool InvariantOracle::rac_blocked_isolation(std::uint64_t tenant,
                                                   const Ledger& l,
                                                   std::string* detail) const {
  const RequestAccessController& access = server_.access();
  if (access.blocked_count() == 0 || tenant >= l.live_by_tenant.size() ||
      l.live_by_tenant[tenant] == 0 ||
      !access.blocked_at(tenants_[tenant], server_.simulator().now())) {
    return true;
  }
  if (detail != nullptr) {
    const std::uint64_t request = l.lowest_sequence(
        [tenant](const SessionSeen& seen) { return seen.tenant == tenant; });
    *detail = "request " + std::to_string(request) + " of blocked tenant " +
              tenants_[tenant] + " still live";
  }
  return false;
}

inline bool InvariantOracle::admission_queue_bound(std::uint64_t,
                                                   const Ledger& l,
                                                   std::string* detail) const {
  if (l.queued != admission_->queue_depth()) {
    if (detail != nullptr) {
      *detail = "scheduler holds " +
                std::to_string(admission_->queue_depth()) +
                " queued, platform tracks " + std::to_string(l.queued);
    }
    return false;
  }
  const qos::QosScheduler& scheduler = admission_->scheduler();
  for (const qos::PriorityClass klass : qos::kAllClasses) {
    if (scheduler.depth(klass) <= scheduler.capacity(klass)) continue;
    if (detail != nullptr) {
      *detail = std::string(qos::to_string(klass)) + " lane holds " +
                std::to_string(scheduler.depth(klass)) +
                " sessions, capacity " +
                std::to_string(scheduler.capacity(klass));
    }
    return false;
  }
  return true;
}

inline bool InvariantOracle::admission_in_service(std::uint64_t,
                                                  const Ledger& l,
                                                  std::string* detail) const {
  if (l.admitted != admission_->in_service()) {
    if (detail != nullptr) {
      *detail = "controller ledger says " +
                std::to_string(admission_->in_service()) + " in service, " +
                std::to_string(l.admitted) + " sessions hold slots";
    }
    return false;
  }
  if (l.admitted <= admission_->max_in_service()) return true;
  if (detail != nullptr) {
    *detail = std::to_string(l.admitted) +
              " in-service sessions exceed the limit of " +
              std::to_string(admission_->max_in_service());
  }
  return false;
}

inline bool InvariantOracle::qos_drr_conservation(std::uint64_t,
                                                  const Ledger& /*l*/,
                                                  std::string* detail) const {
  std::optional<std::string> violation =
      admission_->scheduler().check_conservation();
  if (!violation.has_value()) return true;
  if (detail != nullptr) *detail = std::move(*violation);
  return false;
}

inline bool InvariantOracle::qos_priority_burst(std::uint64_t,
                                                const Ledger& /*l*/,
                                                std::string* detail) const {
  const qos::QosScheduler& scheduler = admission_->scheduler();
  const std::uint32_t burst = std::max(1u, scheduler.config().starvation_burst);
  if (scheduler.max_lower_run() <= burst) return true;
  if (detail != nullptr) {
    *detail = "lower-class run of " +
              std::to_string(scheduler.max_lower_run()) +
              " exceeds the starvation burst of " + std::to_string(burst);
  }
  return false;
}

// ---------------------------------------------------------------------
// Books

inline InvariantOracle::SessionSeen& InvariantOracle::Ledger::book(
    std::uint32_t slot) {
  if (sessions.size() <= slot) sessions.resize(slot + 1);
  return sessions[slot];
}

inline void InvariantOracle::Ledger::add(const SessionSeen& seen, int sign) {
  if (seen.env != 0) {
    if (sign > 0) {
      ++envs[seen.env].bound;
    } else if (EnvSeen* env = envs.find(seen.env);
               env != nullptr && --env->bound == 0 && !env->held) {
      envs.erase(seen.env);
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

inline void InvariantOracle::Ledger::update(const SessionSeen& was,
                                            const SessionSeen& now) {
  if (was.env != now.env || was.tenant != now.tenant) {
    add(was, -1);
    add(now, +1);
    return;
  }
  // The same binding: only the flags move.
  computing += static_cast<std::uint32_t>(now.computing) - was.computing;
  admitted += static_cast<std::uint32_t>(now.admitted) - was.admitted;
  queued += static_cast<std::uint32_t>(now.queued) - was.queued;
}

template <typename Pred>
std::uint64_t InvariantOracle::Ledger::lowest_sequence(Pred&& pred) const {
  std::uint64_t lowest = UINT64_MAX;
  for (const SessionSeen& seen : sessions) {
    if (seen.held && pred(seen)) lowest = std::min(lowest, seen.sequence);
  }
  return lowest;
}

std::uint32_t InvariantOracle::tenant_index(const std::string& tenant) {
  const auto [it, inserted] = tenant_ids_.try_emplace(
      tenant, static_cast<std::uint32_t>(tenants_.size()));
  if (inserted) tenants_.push_back(tenant);
  return it->second;
}

std::uint32_t InvariantOracle::tenant_of(const Platform::SessionState& s) {
  // A session's tenant is its stream's, or its app id when the stream
  // names none, so the stream and the kind decide it.
  const std::uint64_t key =
      s.stream->id << 8 | static_cast<std::uint64_t>(s.kind);
  if (const std::uint32_t* tenant = stream_tenants_.find(key)) return *tenant;
  return stream_tenants_.insert_or_assign(key, tenant_index(s.tenant));
}

inline InvariantOracle::SessionSeen InvariantOracle::seen(
    const Platform::SessionState& s, std::uint32_t tenant) {
  SessionSeen seen;
  seen.sequence = s.request.sequence;
  seen.env = s.env != nullptr ? s.env->id : 0;
  seen.tenant = tenant;
  seen.held = true;
  seen.computing = s.computing;
  seen.admitted = s.admitted;
  seen.queued = s.queued;
  return seen;
}

void InvariantOracle::touch(Platform::SessionRef ref) {
  const Platform::SessionState* s = platform_.find_session(ref);
  if (s == nullptr) return;  // an old generation: the slot has moved on
  SessionSeen& book = ledger_.book(ref.slot);
  if (!s->live) {  // ended (or run locally, never in the books)
    if (!book.held || book.sequence != s->request.sequence) return;
    const SessionSeen was = book;
    book = {};
    ledger_.add(was, -1);
    if (was.env != 0) touched_envs_.push_back(was.env);
    return;
  }
  if (!book.held) {
    book = seen(*s, tenant_of(*s));
    ledger_.add(book, +1);
    touched_tenants_.push_back(book.tenant);
    if (book.env != 0) touched_envs_.push_back(book.env);
    return;
  }
  const SessionSeen now = seen(
      *s, book.sequence == s->request.sequence ? book.tenant : tenant_of(*s));
  if (book == now) return;
  lost_ending_ = lost_ending_ || book.sequence != now.sequence;
  const SessionSeen was = book;
  book = now;
  ledger_.update(was, now);
  if (was.env == now.env) return;
  if (was.env != 0) touched_envs_.push_back(was.env);
  if (now.env != 0) touched_envs_.push_back(now.env);
}

void InvariantOracle::touch_tenant(const std::string& tenant) {
  touched_tenants_.push_back(tenant_index(tenant));
}

inline std::uint32_t InvariantOracle::settle(EnvId id, const EnvRecord* rec) {
  if (rec == nullptr) {  // erased: it stays in the books as reclaimed
    EnvSeen* seen = ledger_.envs.find(id);
    if (seen == nullptr) return 0;  // settled already, or never issued
    if (!seen->held) return seen->bound;
    --ledger_.states[slot(seen->state)];
    ledger_.pool_bytes -= seen->pool_bytes;
    ++ledger_.states[slot(EnvState::kReclaimed)];
    const std::uint32_t bound = seen->bound;
    if (bound == 0) {
      ledger_.envs.erase(id);
    } else {
      *seen = {false, EnvState::kCold, bound, 0};
    }
    return bound;
  }
  EnvSeen& seen = ledger_.envs[id];
  if (seen.held) {
    --ledger_.states[slot(seen.state)];
    ledger_.pool_bytes -= seen.pool_bytes;
  }
  seen.held = true;
  seen.state = rec->state();
  seen.pool_bytes = rec->pooled() ? rec->memory_bytes : 0;
  ++ledger_.states[slot(seen.state)];
  ledger_.pool_bytes += seen.pool_bytes;
  return seen.bound;
}

void InvariantOracle::settle_touched() {
  // Settling is idempotent, so a repeated id costs a lookup, no more.
  for (const EnvId id : touched_envs_) (void)settle(id, table_.find(id));
}

InvariantOracle::Ledger InvariantOracle::recount() {
  Ledger fresh;
  // Sized as the incremental books, so the two compare slot for slot.
  fresh.sessions.resize(ledger_.sessions.size());
  platform_.for_each_live([&](const Platform::SessionState& s) {
    SessionSeen& book = fresh.book(s.slot);
    book = seen(s, tenant_index(s.tenant));
    fresh.add(book, +1);
  });
  // An erased record is reclaimed.
  fresh.states[slot(EnvState::kReclaimed)] =
      table_.size() - table_.records().size();
  for (const EnvRecord& rec : table_.records()) {
    EnvSeen& seen = fresh.envs[rec.id];
    seen.held = true;
    seen.state = rec.state();
    seen.pool_bytes = rec.pooled() ? rec.memory_bytes : 0;
    ++fresh.states[slot(rec.state())];
    fresh.pool_bytes += seen.pool_bytes;
  }
  return fresh;
}

// ---------------------------------------------------------------------
// Passes

inline bool InvariantOracle::env_holds(EnvId id, const EnvRecord* rec,
                                       std::uint32_t bound) const {
  const Ledger& l = ledger_;
  return session_env_liveness(id, rec, bound, l, nullptr) &&
         affinity_live(id, rec, bound, l, nullptr) &&
         inflight_consistency(id, rec, bound, l, nullptr) &&
         db_consistency(id, rec, bound, l, nullptr);
}

inline bool InvariantOracle::platform_holds() const {
  const Ledger& l = ledger_;
  if (!(tmpfs_accounting(0, l, nullptr) && burn_after_reading(0, l, nullptr) &&
        monitor_jobs(0, l, nullptr) && lifecycle_state(0, l, nullptr) &&
        elastic_memory_budget(0, l, nullptr))) {
    return false;
  }
  return admission_ == nullptr || (admission_queue_bound(0, l, nullptr) &&
                                   admission_in_service(0, l, nullptr) &&
                                   qos_drr_conservation(0, l, nullptr) &&
                                   qos_priority_burst(0, l, nullptr));
}

void InvariantOracle::update_open() {
  open_pairs_ = 0;
  for (Invariant& invariant : invariants_) {
    const auto evaluate = [&](std::uint64_t entity) {
      std::string detail;
      if ((this->*invariant.check)(entity, ledger_, &detail)) {
        invariant.open.erase(entity);
      } else {
        invariant.open.insert_or_assign(entity, std::move(detail));
      }
    };
    // Open pairs are re-checked every event: time alone (a block window
    // running out) or a repair no touch point reports can close them.
    for (auto it = invariant.open.begin(); it != invariant.open.end();) {
      std::string detail;
      if ((this->*invariant.check)(it->first, ledger_, &detail)) {
        it = invariant.open.erase(it);
      } else {
        it->second = std::move(detail);
        ++it;
      }
    }
    switch (invariant.scope) {
      case Scope::kEnv:
        for (const EnvId id : touched_envs_) evaluate(id);
        break;
      case Scope::kTenant:
        for (const std::uint32_t tenant : touched_tenants_) evaluate(tenant);
        break;
      case Scope::kPlatform:  // an open pair was just re-checked
        if (invariant.open.empty()) evaluate(0);
        break;
    }
    open_pairs_ += invariant.open.size();
  }
  touched_envs_.clear();
  touched_tenants_.clear();
}

void InvariantOracle::after_event() {
  checker_.begin_check();
  // The fast path: settle what the event touched and check it, and the
  // platform, with no detail built and no open-pair bookkeeping.
  bool holds = open_pairs_ == 0;
  EnvId last = 0;
  for (const EnvId id : touched_envs_) {
    if (id == last) continue;  // transition + pool exit report one id twice
    last = id;
    const EnvRecord* rec = table_.find(id);
    const std::uint32_t bound = settle(id, rec);
    holds = holds && env_holds(id, rec, bound);
  }
  for (const std::uint32_t tenant : touched_tenants_) {
    holds = holds && rac_blocked_isolation(tenant, ledger_, nullptr);
  }
  if (holds && platform_holds()) {
    touched_envs_.clear();
    touched_tenants_.clear();
  } else {
    update_open();
    const sim::SimTime now = server_.simulator().now();
    for (const Invariant& invariant : invariants_) {
      if (invariant.open.empty()) continue;
      // The lowest violating entity: the one a full sweep reports.
      checker_.record(invariant.name, invariant.open.begin()->second, now);
    }
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
      for (const EnvRecord& rec : table_.records()) {
        entities.push_back(rec.id);
      }
      l.envs.for_each([&](EnvId id, const EnvSeen& seen) {
        if (seen.bound > 0) entities.push_back(id);
      });
      server_.warehouse().for_each_entry([&](const CacheEntry& entry) {
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
      std::string detail;
      if (!(this->*invariant.check)(entity, l, &detail)) {
        open[i].emplace(entity, std::move(detail));
      }
    }
  }
  return open;
}

void InvariantOracle::full_sweep(InvariantChecker& into) {
  const std::vector<std::map<std::uint64_t, std::string>> open =
      sweep(recount());
  into.begin_check();
  const sim::SimTime now = server_.simulator().now();
  for (std::size_t i = 0; i < invariants_.size(); ++i) {
    if (open[i].empty()) continue;
    into.record(invariants_[i].name, open[i].begin()->second, now);
  }
}

void InvariantOracle::quiescent_sweep() {
  settle_touched();
  update_open();
  Ledger fresh = recount();
  std::vector<std::map<std::uint64_t, std::string>> open = sweep(fresh);
  // The per-env, per-tenant and count books are sums over the session
  // books, so comparing those (and the record books) covers them.
  std::string drift;
  if (lost_ending_ || fresh.sessions != ledger_.sessions) {
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
                  server_.simulator().now());
  ledger_ = std::move(fresh);
  lost_ending_ = false;
  open_pairs_ = 0;
  for (std::size_t i = 0; i < invariants_.size(); ++i) {
    invariants_[i].open = std::move(open[i]);
    open_pairs_ += invariants_[i].open.size();
  }
}

}  // namespace rattrap::core
