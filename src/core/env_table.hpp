// Environment table: the platform's one registry of runtime environments.
//
// "Container DB stores information of Cloud Android Containers as basis of
// resource management" (§IV-A).  Every environment the platform provisions
// — CAC or VM — has exactly one record here, and its lifecycle state
// changes only through transition() (docs/ELASTIC.md):
//
//   cold ──▶ booting ──▶ warm_idle ◀──▶ leased
//               │            │             │
//               └────────▶ draining ◀─────┘
//                            │
//                            ▼
//                        reclaimed
//
// Booting may lease directly (a session was already waiting when the boot
// finished), and booting, warm_idle and leased may be reclaimed directly
// (provision failure, crash); `failed` records why.
//
// transition() checks the edge, keeps the per-state counts and the
// memory integrals (the byte·seconds the §III-B ablation prices), emits
// the envdb.* and elastic.* metrics and one lifecycle trace span per
// state, and maintains the ordered indexes the engine reads instead of
// scanning every record: binding key → leasable ids, and the claimable
// warm-pool ids.  Binding keys are integers (EnvKey), and a draining
// environment simply leaves the key index.  Illegal transitions are not
// fatal: the first one is kept in first_error() and reported by the
// lifecycle-state invariant, so a violation fails loudly in the harness
// instead of crashing a release build.
//
// A record also holds the environment's resources.  Records live in an
// id-keyed map (references stable until erase(), records() in id order)
// until the platform erases one, reclaimed with no session bound.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <set>
#include <string>
#include <vector>

#include "core/cac.hpp"
#include "core/warehouse.hpp"  // EnvId
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/flat_hash.hpp"
#include "sim/inline_callback.hpp"
#include "sim/time.hpp"
#include "vm/vm.hpp"

namespace rattrap::core {

enum class EnvState : std::uint8_t {
  kCold = 0,       ///< registered, provisioning not finished (transient)
  kBooting = 1,    ///< provisioned, boot in flight
  kWarmIdle = 2,   ///< ready, no session bound, holding memory
  kLeased = 3,     ///< ready with at least one session bound
  kDraining = 4,   ///< no new leases; reclaimed once in-flight work ends
  kReclaimed = 5,  ///< stopped, memory and private layer released
};

inline constexpr std::size_t kEnvStateCount = 6;

[[nodiscard]] const char* to_string(EnvState state);

enum class EnvBacking : std::uint8_t { kVm, kContainer };

/// What an environment is bound to: the device whose requests it serves,
/// a warm-pool slot no device has claimed yet, or the provision probe.
/// An integer, so the key index never hashes or compares strings.
class EnvKey {
 public:
  [[nodiscard]] static constexpr EnvKey device(std::uint32_t device_id) {
    return EnvKey(kDevice, device_id);
  }
  [[nodiscard]] static constexpr EnvKey pool(std::uint32_t slot) {
    return EnvKey(kPool, slot);
  }
  [[nodiscard]] static constexpr EnvKey probe() { return EnvKey(kProbe, 0); }

  /// The key as one integer (kind in the high word, number in the low).
  [[nodiscard]] constexpr std::uint64_t bits() const { return bits_; }

  friend constexpr bool operator==(EnvKey a, EnvKey b) {
    return a.bits_ == b.bits_;
  }

 private:
  enum Kind : std::uint64_t { kDevice = 0, kPool = 1, kProbe = 2 };
  constexpr EnvKey(Kind kind, std::uint32_t number)
      : bits_(static_cast<std::uint64_t>(kind) << 32 | number) {}
  std::uint64_t bits_;
};

/// Lifecycle-state spans live on one trace track per environment, far
/// above any session's (session tracks are sequence + 1).
inline constexpr std::uint64_t kLifecycleTrackBase = 1'000'000'000;

class EnvRecord {
 public:
  EnvId id = 0;
  EnvBacking backing = EnvBacking::kContainer;
  sim::SimTime provisioned_at = 0;  ///< provisioning start (commit start)
  sim::SimTime ready_at = -1;       ///< boot end; -1 until booted
  sim::SimTime busy_until = 0;      ///< compute backlog horizon
  std::uint64_t jobs_served = 0;    ///< jobs finished (reclaim epoch)
  std::uint32_t inflight = 0;       ///< sessions bound but not finished
  std::uint64_t memory_bytes = 0;   ///< committed allocation (0 = none)
  bool failed = false;              ///< reclaimed because provisioning failed

  // Resources, which only the platform reads.
  vm::VmId vm_id = 0;                          ///< VM-backed only
  std::unique_ptr<CloudAndroidContainer> cac;  ///< container-backed only
  android::ClassLoader vm_loader;              ///< VM-backed only
  std::vector<sim::InlineCallback> waiters;    ///< sessions awaiting boot
  std::set<std::string> pushed_apps;  ///< code received (§III-D duplicates)
  std::uint64_t disk_bytes = 0;

  [[nodiscard]] bool is_vm() const { return backing == EnvBacking::kVm; }
  [[nodiscard]] EnvState state() const { return state_; }
  [[nodiscard]] EnvKey key() const { return key_; }
  [[nodiscard]] bool live() const { return state_ != EnvState::kReclaimed; }
  /// Claimable in the warm pool (EnvTable::add_to_pool).
  [[nodiscard]] bool pooled() const { return pooled_; }

  /// Booted and not reclaimed: the environment can run work.  A drain
  /// begun mid-boot leaves it draining but not ready until the boot ends.
  [[nodiscard]] bool ready() const {
    return state_ == EnvState::kWarmIdle || state_ == EnvState::kLeased ||
           (state_ == EnvState::kDraining && ready_at >= 0);
  }

  /// Still taking new leases (neither draining nor reclaimed).
  [[nodiscard]] bool leasable() const {
    return state_ == EnvState::kCold || state_ == EnvState::kBooting ||
           state_ == EnvState::kWarmIdle || state_ == EnvState::kLeased;
  }

 private:
  friend class EnvTable;
  EnvState state_ = EnvState::kCold;
  sim::SimTime entered_at_ = 0;  ///< when state_ was entered
  EnvKey key_ = EnvKey::probe();  ///< binding key (see rebind())
  /// Next leasable record with the same key, ascending; 0 ends the chain.
  EnvId next_with_key_ = 0;
  obs::SpanId span_ = obs::kNoSpan;  ///< open lifecycle span
  bool pooled_ = false;              ///< claimable in the warm pool
  std::uint32_t idle_slot_ = 0;      ///< its entry in EnvTable::idle_
};

class EnvTable {
 public:
  using Records = std::map<EnvId, EnvRecord>;

  /// Registers a new cold environment bound to `key`; ids count up from
  /// 1.  The reference is stable until erase().
  EnvRecord& add(EnvBacking backing, EnvKey key, sim::SimTime now);

  /// Removes a reclaimed record, which size() and the state counts keep
  /// counting; returns its node, which a caller may hold to keep the
  /// storage alive.
  Records::node_type erase(EnvId id);

  /// Moves `id` to `to` if the edge is legal; otherwise records the
  /// violation in first_error() and leaves the state unchanged.
  void transition(EnvId id, EnvState to, sim::SimTime now);

  [[nodiscard]] EnvRecord* find(EnvId id) {
    EnvRecord* const* record = by_id_.find(id);
    return record != nullptr ? *record : nullptr;
  }
  [[nodiscard]] const EnvRecord* find(EnvId id) const {
    return const_cast<EnvTable*>(this)->find(id);
  }

  /// The leasable environment (neither draining nor reclaimed) bound to
  /// `key` with the lowest id, if any.
  [[nodiscard]] EnvRecord* find_by_key(EnvKey key);

  /// Re-points an environment's binding key, keeping the key index
  /// coherent.  False for unknown ids.
  bool rebind(EnvId id, EnvKey key);

  // -- Warm pool: pre-booted environments waiting for a claimant.

  /// Makes a live, leasable environment claimable.  Draining or
  /// reclaiming it (or claim_pool()) removes it again.
  void add_to_pool(EnvId id);
  /// Takes the lowest claimable id out of the pool.
  std::optional<EnvId> claim_pool();
  [[nodiscard]] bool pooled(EnvId id) const {
    const EnvRecord* record = find(id);
    return record != nullptr && record->pooled();
  }
  /// Claimable ids, ascending.
  [[nodiscard]] const std::set<EnvId>& pool() const { return pool_; }
  /// Claimable environments in `state` (O(1): kept per transition).
  [[nodiscard]] std::size_t pooled_count(EnvState state) const {
    return pooled_counts_[static_cast<std::size_t>(state)];
  }
  /// Committed memory of the claimable environments (O(1) ledger).
  [[nodiscard]] std::uint64_t pool_bytes() const { return pool_bytes_; }

  /// The records not erased, as const EnvRecord&, in ascending id.
  [[nodiscard]] auto records() const { return std::views::values(records_); }
  /// Ids issued so far, erased records included.
  [[nodiscard]] std::size_t size() const { return issued_; }
  [[nodiscard]] std::size_t live_count() const {
    return issued_ - count(EnvState::kReclaimed);
  }
  [[nodiscard]] std::size_t count(EnvState state) const {
    return counts_[static_cast<std::size_t>(state)];
  }
  /// Total transitions *into* `state` so far.
  [[nodiscard]] std::uint64_t transitions_into(EnvState state) const {
    return transitions_[static_cast<std::size_t>(state)];
  }

  /// Integral of committed memory over time spent warm-idle, in
  /// byte·seconds up to `now` — the standing cost of the warm pool.  The
  /// open intervals are added in id order from a compact array, so the
  /// sum rounds as a walk over the records would.
  [[nodiscard]] double idle_byte_seconds(sim::SimTime now) const;

  /// Integral of committed memory over each environment's provisioned
  /// lifetime, in byte·seconds up to `now`.
  [[nodiscard]] double memory_byte_seconds(sim::SimTime now) const;

  /// First illegal transition observed, or empty.
  [[nodiscard]] const std::string& first_error() const { return first_error_; }

  /// Attaches a metrics registry: add/reclaim count into envdb.added /
  /// envdb.retired with envdb.active tracking the live population, and
  /// every transition updates elastic.transitions.<to> and
  /// elastic.state.<from|to>.  The envdb.* handles are created here, the
  /// elastic.* ones on first use.  nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attaches a trace recorder: while it is enabled every environment
  /// gets one lifecycle span per state on track kLifecycleTrackBase + id.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Attaches the invariant oracle's touch list: every id whose state or
  /// pool membership changes is appended to it.  nullptr detaches.
  void set_touches(std::vector<EnvId>* touches) { touches_ = touches; }
  /// Appends `id` to the touch list: a change made outside the table.
  void touch(EnvId id) {
    if (touches_ != nullptr) touches_->push_back(id);
  }

 private:
  void leave_pool(EnvId id);
  void compact_idle();
  void index_key(EnvRecord& record);
  void unindex_key(EnvRecord& record);
  void emit(EnvRecord& record, EnvState from, EnvState to, sim::SimTime now);

  Records records_;
  sim::FlatHashMap<EnvId, EnvRecord*> by_id_;  ///< find() in one probe
  std::size_t issued_ = 0;  ///< the last id add() handed out
  /// binding key bits → the lowest leasable id holding it; the others
  /// follow through EnvRecord::next_with_key_ (usually there are none).
  sim::FlatHashMap<std::uint64_t, EnvId> by_key_;
  std::set<EnvId> pool_;
  std::uint64_t pool_bytes_ = 0;
  std::array<std::size_t, kEnvStateCount> pooled_counts_{};
  /// One entry per held record, in id order (add() appends and ids only
  /// grow): the open warm-idle interval idle_byte_seconds() adds.  An
  /// erased record leaves a hole until holes are the majority.
  struct IdleSlot {
    sim::SimTime since = -1;  ///< warm-idle since; -1 when not warm-idle
    std::uint64_t bytes = 0;  ///< committed memory while warm-idle
  };
  std::vector<IdleSlot> idle_;
  std::size_t idle_holes_ = 0;
  std::array<std::size_t, kEnvStateCount> counts_{};
  std::array<std::uint64_t, kEnvStateCount> transitions_{};
  /// Closed warm-idle intervals and provisioned lifetimes; open ones are
  /// added by the accessors.
  double idle_byte_seconds_ = 0;
  double memory_byte_seconds_ = 0;
  std::string first_error_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* added_ = nullptr;
  obs::Counter* retired_ = nullptr;
  obs::Gauge* active_ = nullptr;
  std::array<obs::Counter*, kEnvStateCount> transition_metrics_{};
  std::array<obs::Gauge*, kEnvStateCount> state_metrics_{};
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<EnvId>* touches_ = nullptr;
};

}  // namespace rattrap::core
