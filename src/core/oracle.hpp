// Incremental invariant oracle: the 14 cross-component invariants of
// docs/FAULTS.md, checked after every simulator event at the cost of what
// the event changed rather than the size of the platform.
//
// Touch points.  The code that mutates state says what it touched: the
// environment table and the App Warehouse append environment ids to the
// oracle's touch list (transition, add, pool membership, EnvTable::touch
// at boot end and at Monitor crash detection, record_execution,
// forget_env); the platform reports sessions (arrival, admission, dispatch
// bind, compute start/end, crash, redispatch, finish, stranding) by their
// record handle, and tenants (RAC block/unblock).
//
// Shadow ledgers.  The oracle keeps its own books: each live session as
// it last saw it, in a vector indexed by the session's record slot; how
// many sessions are bound to each environment; the computing, admitted
// and queued counts; live sessions per tenant; each record's lifecycle
// state as last seen and the warm pool's committed bytes.  The platform's
// counters (inflight pins, Monitor job slots, admission slots, state
// counts, pool bytes) are checked against these books, never against
// themselves.  A touch whose handle carries an old generation (the slot
// has moved on to another session) changes nothing.
//
// One predicate per invariant, over one entity: an environment (#1, #2,
// #6, #7), a tenant (#14) or the whole platform (the rest, all O(1) or
// O(tenants)).  Each predicate returns whether its invariant holds and
// builds its detail string only when it fails and a detail is asked for.
// Two passes run them:
//   * after_event(): the fast path settles the touched environments into
//     the books and runs the predicates of the touched environments and
//     tenants and every platform predicate, inlined into one conjunction
//     that asks for no detail.
//     When that holds and no violation is open, the event is done: an
//     event that touched nothing costs a few loads and branches.
//     Otherwise the general pass re-evaluates the touched and open
//     entities of every invariant.  A violating (invariant, entity) pair
//     stays open until it passes, and each event counts one violation per
//     invariant with any open pair, so total_violations(),
//     first_violation() and checks_run() are exactly what a full sweep
//     after every event would report.
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

  /// Touch points.  A session is re-read at once, if `ref` still names
  /// it; environments and tenants are re-checked after the current event.
  void touch(Platform::SessionRef ref);
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
  /// Defined only by tests (reads the session books).
  friend struct PlatformTestPeer;

  /// One record slot's book: the live session in it as the oracle last
  /// saw it, or an empty book (`held` false).
  struct SessionSeen {
    std::uint64_t sequence = 0;
    EnvId env = 0;
    std::uint32_t tenant = 0;
    bool held = false;
    bool computing = false;
    bool admitted = false;
    bool queued = false;
    bool operator==(const SessionSeen&) const = default;
  };
  /// One environment's book: its record as last seen, and how many
  /// sessions are bound to it.  Kept while either is there.
  struct EnvSeen {
    bool held = false;  ///< the record is in the books (false: fresh)
    EnvState state = EnvState::kCold;
    std::uint32_t bound = 0;
    std::uint64_t pool_bytes = 0;
  };
  /// The books the invariants compare platform counters against: the
  /// live sessions and sums over them, and the records' states.
  struct Ledger {
    std::vector<SessionSeen> sessions;  ///< by record slot
    sim::FlatHashMap<EnvId, EnvSeen> envs;
    std::uint32_t computing = 0;
    std::uint32_t admitted = 0;
    std::uint32_t queued = 0;
    std::vector<std::uint32_t> live_by_tenant;  ///< by tenant index
    std::array<std::size_t, kEnvStateCount> states{};
    std::uint64_t pool_bytes = 0;

    /// The book of `slot`, grown to reach it.
    SessionSeen& book(std::uint32_t slot);
    void add(const SessionSeen& seen, int sign);
    /// One session's book changed from `was` to `now`.
    void update(const SessionSeen& was, const SessionSeen& now);
    [[nodiscard]] std::uint32_t bound_count(EnvId id) const {
      const EnvSeen* env = envs.find(id);
      return env != nullptr ? env->bound : 0;
    }
    /// The lowest request sequence among the books `pred` accepts
    /// (violation details only).
    template <typename Pred>
    [[nodiscard]] std::uint64_t lowest_sequence(Pred&& pred) const;
  };
  enum class Scope : std::uint8_t { kEnv, kTenant, kPlatform };
  /// Whether the invariant holds for `entity`; where it does not and
  /// `detail` is given, what the predicate saw.
  using Check = bool (InvariantOracle::*)(std::uint64_t entity,
                                          const Ledger& l,
                                          std::string* detail) const;
  /// An environment predicate, given the held record (nullptr when
  /// erased) and the sessions the books bind to it.
  using EnvCheck = bool (InvariantOracle::*)(EnvId id, const EnvRecord* rec,
                                             std::uint32_t bound,
                                             const Ledger& l,
                                             std::string* detail) const;
  struct Invariant {
    const char* name;
    Scope scope;
    Check check;
    std::map<std::uint64_t, std::string> open;  ///< entity → detail
  };

  // The predicates, in registration order (docs/FAULTS.md numbering).
  bool session_env_liveness(EnvId id, const EnvRecord* rec,
                            std::uint32_t bound, const Ledger& l,
                            std::string* detail) const;
  bool affinity_live(EnvId id, const EnvRecord* rec, std::uint32_t bound,
                     const Ledger& l, std::string* detail) const;
  bool tmpfs_accounting(std::uint64_t, const Ledger& l,
                        std::string* detail) const;
  bool burn_after_reading(std::uint64_t, const Ledger& l,
                          std::string* detail) const;
  bool monitor_jobs(std::uint64_t, const Ledger& l,
                    std::string* detail) const;
  bool inflight_consistency(EnvId id, const EnvRecord* rec,
                            std::uint32_t bound, const Ledger& l,
                            std::string* detail) const;
  bool db_consistency(EnvId id, const EnvRecord* rec, std::uint32_t bound,
                      const Ledger& l, std::string* detail) const;
  bool lifecycle_state(std::uint64_t, const Ledger& l,
                       std::string* detail) const;
  bool elastic_memory_budget(std::uint64_t, const Ledger& l,
                             std::string* detail) const;
  bool rac_blocked_isolation(std::uint64_t tenant, const Ledger& l,
                             std::string* detail) const;
  bool admission_queue_bound(std::uint64_t, const Ledger& l,
                             std::string* detail) const;
  bool admission_in_service(std::uint64_t, const Ledger& l,
                            std::string* detail) const;
  bool qos_drr_conservation(std::uint64_t, const Ledger& l,
                            std::string* detail) const;
  bool qos_priority_burst(std::uint64_t, const Ledger& l,
                          std::string* detail) const;

  /// An environment predicate as a Check: looks the record up.
  template <EnvCheck Predicate>
  bool env_check(std::uint64_t env, const Ledger& l,
                 std::string* detail) const {
    const auto id = static_cast<EnvId>(env);
    return (this->*Predicate)(id, table_.find(id), l.bound_count(id), l,
                              detail);
  }
  /// The fast path's conjunctions: every environment test on one record,
  /// every platform test.
  bool env_holds(EnvId id, const EnvRecord* rec, std::uint32_t bound) const;
  bool platform_holds() const;

  [[nodiscard]] std::uint32_t tenant_index(const std::string& tenant);
  /// A session's tenant index, resolved once per stream and kind.
  [[nodiscard]] std::uint32_t tenant_of(const Platform::SessionState& s);
  [[nodiscard]] static SessionSeen seen(const Platform::SessionState& s,
                                        std::uint32_t tenant);
  /// Folds one touched environment into the per-record books; returns
  /// the sessions bound to it.
  std::uint32_t settle(EnvId id, const EnvRecord* rec);
  void settle_touched();
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

  // What every event reads first, together.
  InvariantChecker& checker_;
  std::vector<EnvId> touched_envs_;
  std::vector<std::uint32_t> touched_tenants_;
  std::size_t open_pairs_ = 0;  ///< over every invariant
  InvariantChecker* sweep_into_ = nullptr;
  const EnvTable& table_;
  CloudServer& server_;
  const AdmissionController* admission_;  ///< nullptr: #8–#11 unarmed
  std::uint64_t pool_budget_;  ///< elastic memory budget, 0: none
  Ledger ledger_;

  Platform& platform_;
  std::vector<Invariant> invariants_;
  /// A live session's touch found its slot's book holding another one:
  /// the earlier session's ending was never touched.
  bool lost_ending_ = false;
  std::vector<std::string> tenants_;  ///< by tenant index
  std::unordered_map<std::string, std::uint32_t> tenant_ids_;
  /// (stream id, kind) → tenant index: a stream's sessions of one kind
  /// share their tenant.
  sim::FlatHashMap<std::uint64_t, std::uint32_t> stream_tenants_;
};

}  // namespace rattrap::core
