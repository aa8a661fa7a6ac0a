// Incremental invariant oracle: the 14 cross-component invariants of
// docs/FAULTS.md, checked after every simulator event at the cost of what
// the event changed rather than the size of the platform.
//
// Touch points.  The code that mutates state says what it touched: the
// environment table and the App Warehouse append environment ids to the
// oracle's touch list (transition, add, pool membership, record_execution,
// forget_env); the platform reports sessions (arrival, admission, dispatch
// bind, compute start/end, crash, redispatch, finish, stranding) and
// tenants (RAC block/unblock), plus environment ids at boot end and at
// Monitor crash detection.
//
// Shadow ledgers.  The oracle keeps its own books: each live session as
// it last saw it, the sessions bound to each environment, the computing,
// admitted and queued counts, live sessions per tenant, each record's
// lifecycle state as last seen and the warm pool's committed bytes.  The
// platform's counters (inflight pins, Monitor job slots, admission slots,
// state counts, pool bytes) are checked against these books, never
// against themselves.
//
// One predicate per invariant, over one entity: an environment (#1, #2,
// #6, #7), a tenant (#14) or the whole platform (the rest, all O(1) or
// O(tenants)).  Two passes run the predicates:
//   * after_event(): the touched entities plus every still-open violation.
//     A violating (invariant, entity) pair stays open until it passes, and
//     each event counts one violation per invariant with any open pair, so
//     total_violations(), first_violation() and checks_run() are exactly
//     what a full sweep after every event would report.
//   * full_sweep(): every entity, against ledgers recounted from scratch.
//     It runs once per drain, when nothing is in flight; any difference
//     from the incremental books (a missing touch point) is recorded as an
//     `oracle-drift` violation and the books are resynced.  A test-only
//     mode (reachable only through PlatformTestPeer) also runs it after
//     every event into a second checker, for the differential test.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/env_table.hpp"
#include "core/invariant.hpp"
#include "core/platform.hpp"
#include "sim/flat_hash.hpp"

namespace rattrap::core {

class InvariantOracle {
 public:
  /// Arms the invariants `platform`'s configuration has (#8–#11 need the
  /// admission controller) and attaches the touch list to its environment
  /// table and App Warehouse.  Violations go to platform.invariants().
  explicit InvariantOracle(Platform& platform);
  ~InvariantOracle();

  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  /// Touch points.  A session is re-read at once; environments and
  /// tenants are re-checked after the current event.
  void touch(const Platform::SessionState& s);
  void touch_env(EnvId id) { touched_envs_.push_back(id); }
  void touch_tenant(const std::string& tenant);

  /// The post-event hook: one check over what the event touched.
  void after_event();

  /// Cross-checks the incremental books against a recount while nothing
  /// is in flight (end of drain); resyncs them if they drifted.
  void quiescent_sweep();

  /// Test-only: also run the full sweep after every event, recording into
  /// `into` (nullptr turns it off).
  void sweep_every_event(InvariantChecker* into) { sweep_into_ = into; }

 private:
  /// One live session as the oracle last saw it.
  struct SessionSeen {
    EnvId env = 0;
    std::uint32_t tenant = 0;
    bool computing = false;
    bool admitted = false;
    bool queued = false;
    bool operator==(const SessionSeen&) const = default;
  };
  /// The books the invariants compare platform counters against: the
  /// live sessions and sums over them, and the records' states.
  struct Ledger {
    std::unordered_map<std::uint64_t, SessionSeen> sessions;  ///< by sequence
    sim::FlatHashMap<EnvId, std::vector<std::uint64_t>> bound;  ///< by env
    std::uint32_t computing = 0;
    std::uint32_t admitted = 0;
    std::uint32_t queued = 0;
    std::vector<std::uint32_t> live_by_tenant;  ///< by tenant index
    std::array<std::size_t, kEnvStateCount> states{};
    std::uint64_t pool_bytes = 0;

    void add(std::uint64_t sequence, const SessionSeen& seen, int sign);
    [[nodiscard]] std::size_t bound_count(EnvId id) const {
      const std::vector<std::uint64_t>* on_env = bound.find(id);
      return on_env != nullptr ? on_env->size() : 0;
    }
  };
  struct EnvSeen {
    EnvState state = EnvState::kCold;
    std::uint64_t pool_bytes = 0;
  };
  enum class Scope : std::uint8_t { kEnv, kTenant, kPlatform };
  using Predicate = std::optional<std::string> (InvariantOracle::*)(
      std::uint64_t entity, const Ledger& ledger) const;
  struct Invariant {
    const char* name;
    Scope scope;
    Predicate check;
    std::map<std::uint64_t, std::string> open;  ///< entity → detail
  };

  // The predicates, in registration order (docs/FAULTS.md numbering).
  std::optional<std::string> session_env_liveness(std::uint64_t env,
                                                  const Ledger& l) const;
  std::optional<std::string> affinity_live(std::uint64_t env,
                                           const Ledger& l) const;
  std::optional<std::string> tmpfs_accounting(std::uint64_t,
                                              const Ledger& l) const;
  std::optional<std::string> burn_after_reading(std::uint64_t,
                                                const Ledger& l) const;
  std::optional<std::string> monitor_jobs(std::uint64_t,
                                          const Ledger& l) const;
  std::optional<std::string> inflight_consistency(std::uint64_t env,
                                                  const Ledger& l) const;
  std::optional<std::string> db_consistency(std::uint64_t env,
                                            const Ledger& l) const;
  std::optional<std::string> lifecycle_state(std::uint64_t,
                                             const Ledger& l) const;
  std::optional<std::string> elastic_memory_budget(std::uint64_t,
                                                   const Ledger& l) const;
  std::optional<std::string> rac_blocked_isolation(std::uint64_t tenant,
                                                   const Ledger& l) const;
  std::optional<std::string> admission_queue_bound(std::uint64_t,
                                                   const Ledger& l) const;
  std::optional<std::string> admission_in_service(std::uint64_t,
                                                  const Ledger& l) const;
  std::optional<std::string> qos_drr_conservation(std::uint64_t,
                                                  const Ledger& l) const;
  std::optional<std::string> qos_priority_burst(std::uint64_t,
                                                const Ledger& l) const;

  [[nodiscard]] std::uint32_t tenant_index(const std::string& tenant);
  [[nodiscard]] static SessionSeen seen(const Platform::SessionState& s,
                                        std::uint32_t tenant);
  /// Folds the touched environments into the per-record books.
  void settle_envs();
  /// Re-evaluates the touched and open entities of every invariant.
  void update_open();
  /// Every entity an invariant of `scope` ranges over.
  [[nodiscard]] std::vector<std::uint64_t> all_entities(Scope scope,
                                                        const Ledger& l) const;
  /// The books recounted from platform state.
  [[nodiscard]] Ledger recount();
  /// Evaluates every invariant over every entity: the violating entities
  /// with their details, per invariant.
  [[nodiscard]] std::vector<std::map<std::uint64_t, std::string>> sweep(
      const Ledger& l) const;
  void full_sweep(InvariantChecker& into);

  Platform& platform_;
  InvariantChecker& checker_;
  std::vector<Invariant> invariants_;
  Ledger ledger_;
  /// The records as last seen, by id; an erased one leaves as reclaimed.
  sim::FlatHashMap<EnvId, EnvSeen> envs_seen_;
  std::vector<std::string> tenants_;  ///< by tenant index
  std::unordered_map<std::string, std::uint32_t> tenant_ids_;
  std::vector<EnvId> touched_envs_;
  std::vector<std::uint32_t> touched_tenants_;
  std::vector<std::uint64_t> candidates_;  ///< scratch, reused per event
  InvariantChecker* sweep_into_ = nullptr;
};

}  // namespace rattrap::core
