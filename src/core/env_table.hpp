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
// warm-idle memory integral (the byte·seconds the §III-B ablation prices),
// emits the envdb.* and elastic.* metrics and one lifecycle trace span per
// state, and maintains the ordered indexes the engine reads instead of
// scanning every record: binding key → live ids, the live ids, and the
// claimable warm-pool ids.  Illegal transitions are not fatal: the first
// one is kept in first_error() and reported by the lifecycle-state
// invariant, so a violation fails loudly in the harness instead of
// crashing a release build.
//
// Records live in a deque indexed by id - 1: ids are allocated by add()
// in ascending order, references stay stable for the table's lifetime,
// and iterating records() visits environments in ascending id.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/warehouse.hpp"  // EnvId
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/flat_hash.hpp"
#include "sim/time.hpp"

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

  [[nodiscard]] EnvState state() const { return state_; }
  [[nodiscard]] const std::string& key() const { return key_; }
  [[nodiscard]] bool live() const { return state_ != EnvState::kReclaimed; }

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
  std::string key_;              ///< binding key (indexed; see rebind())
  obs::SpanId span_ = obs::kNoSpan;  ///< open lifecycle span
};

class EnvTable {
 public:
  /// Registers a new cold environment bound to `key`; ids count up from
  /// 1.  The reference is stable for the table's lifetime.
  EnvRecord& add(EnvBacking backing, std::string key, sim::SimTime now);

  /// Moves `id` to `to` if the edge is legal; otherwise records the
  /// violation in first_error() and leaves the state unchanged.
  void transition(EnvId id, EnvState to, sim::SimTime now);

  [[nodiscard]] EnvRecord* find(EnvId id);
  [[nodiscard]] const EnvRecord* find(EnvId id) const;

  /// The live environment bound to `key` with the lowest id, if any.
  [[nodiscard]] EnvRecord* find_by_key(std::string_view key);

  /// Re-points an environment's binding key, keeping the key index
  /// coherent.  False for unknown ids.
  bool rebind(EnvId id, std::string key);

  // -- Warm pool: pre-booted environments waiting for a claimant.

  /// Makes a live, leasable environment claimable.  Draining or
  /// reclaiming it (or claim_pool()) removes it again.
  void add_to_pool(EnvId id);
  /// Takes the lowest claimable id out of the pool.
  std::optional<EnvId> claim_pool();
  [[nodiscard]] bool pooled(EnvId id) const { return pool_.contains(id); }
  /// Claimable ids, ascending.
  [[nodiscard]] const std::set<EnvId>& pool() const { return pool_; }
  /// Committed memory of the claimable environments (O(1) ledger).
  [[nodiscard]] std::uint64_t pool_bytes() const { return pool_bytes_; }

  /// Ids not yet reclaimed, ascending.
  [[nodiscard]] const std::set<EnvId>& live_ids() const { return live_; }
  /// Every record ever added, in ascending id.
  [[nodiscard]] const std::deque<EnvRecord>& records() const {
    return records_;
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  [[nodiscard]] std::size_t count(EnvState state) const {
    return counts_[static_cast<std::size_t>(state)];
  }
  /// Total transitions *into* `state` so far.
  [[nodiscard]] std::uint64_t transitions_into(EnvState state) const {
    return transitions_[static_cast<std::size_t>(state)];
  }

  /// Integral of committed memory over time spent warm-idle, in
  /// byte·seconds up to `now` — the standing cost of the warm pool.
  [[nodiscard]] double idle_byte_seconds(sim::SimTime now) const;

  /// Integral of committed memory over each environment's provisioned
  /// lifetime, in byte·seconds up to `now`.
  [[nodiscard]] double memory_byte_seconds(sim::SimTime now) const;

  /// First illegal transition observed, or empty.
  [[nodiscard]] const std::string& first_error() const { return first_error_; }

  /// Lifecycle-state conservation: no illegal transition was attempted,
  /// and the per-state counts and pool bytes equal a recount.
  [[nodiscard]] std::optional<std::string> check() const;

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

 private:
  void touch(EnvId id) {
    if (touches_ != nullptr) touches_->push_back(id);
  }
  void leave_pool(EnvId id);
  void index_key(const std::string& key, EnvId id);
  void unindex_key(const std::string& key, EnvId id);
  void emit(EnvRecord& record, EnvState from, EnvState to, sim::SimTime now);

  std::deque<EnvRecord> records_;  ///< records_[id - 1]
  /// binding key → live ids holding it, ascending (usually size 1).
  sim::FlatHashMap<std::string, std::vector<EnvId>> by_key_;
  std::set<EnvId> live_;
  std::set<EnvId> pool_;
  std::uint64_t pool_bytes_ = 0;
  std::array<std::size_t, kEnvStateCount> counts_{};
  std::array<std::uint64_t, kEnvStateCount> transitions_{};
  /// Closed warm-idle intervals; open ones are added by the accessor.
  double idle_byte_seconds_ = 0;
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
