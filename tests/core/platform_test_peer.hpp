// Test-only access to Platform internals (Platform befriends this struct;
// only tests define it).  Tests use it to force states the engine never
// produces — an illegal table transition, a planted invariant violation —
// and to run the invariant oracle's full sweep after every event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/oracle.hpp"
#include "core/platform.hpp"
#include "core/platform_state.hpp"

namespace rattrap::core {

struct PlatformTestPeer {
  static EnvTable& env_table(Platform& platform) {
    return platform.capacity_.table();
  }
  /// The record of a held environment (its resources included).
  static EnvRecord& env(Platform& platform, EnvId id) {
    return *env_table(platform).find(id);
  }
  /// The platform's CAC template, built on first use.
  static const CacTemplate& cac_template(Platform& platform) {
    return platform.capacity_.cac_template();
  }
  /// Plants an early erase: reclaims `id` behind the Monitor's back and
  /// erases its record while sessions may still be bound to it.  Returns
  /// the record's node; hold it until the run ends, so the sessions bound
  /// to it read live storage, and drop it before the platform.
  static EnvTable::Records::node_type erase_env(Platform& platform,
                                                EnvId id) {
    env_table(platform).transition(id, EnvState::kReclaimed,
                                   platform.server().simulator().now());
    return env_table(platform).erase(id);
  }
  /// Boots one warm-pool environment, ignoring the memory budget.
  static void prewarm(Platform& platform) {
    platform.capacity_.prewarm_env();
  }
  /// Starts draining one specific environment; false if the id is
  /// unknown, already draining, or retired.
  static bool drain_env(Platform& platform, EnvId id) {
    EnvRecord* env = env_table(platform).find(id);
    if (env == nullptr || !env->leasable()) return false;
    platform.capacity_.begin_drain(*env);
    return true;
  }

  /// Reports a touch point the way the mutation site a plant stands in
  /// for does (a defective site still says what it changed).
  static void touch_env(Platform& platform, EnvId id) {
    env_table(platform).touch(id);
  }
  static void touch_tenant(Platform& platform, const std::string& tenant) {
    if (platform.oracle_ != nullptr) platform.oracle_->touch_tenant(tenant);
  }

  using SessionRef = Platform::SessionRef;

  /// The handle of live session `sequence` (its slot and the slot's
  /// current generation), if it is live.
  static std::optional<SessionRef> session_ref(Platform& platform,
                                               std::uint64_t sequence) {
    std::optional<SessionRef> ref;
    platform.for_each_live([&](const Platform::SessionState& s) {
      if (s.request.sequence == sequence) ref = platform.session_ref(s);
    });
    return ref;
  }
  /// Reports a session touch point with handle `ref`, as the platform
  /// does when a session's state changes.
  static void touch_session(Platform& platform, SessionRef ref) {
    if (platform.oracle_ != nullptr) platform.oracle_->touch(ref);
  }
  /// The request sequence the oracle's books hold for record slot
  /// `slot`, or nullopt when they hold no live session there.
  static std::optional<std::uint64_t> booked_sequence(const Platform& platform,
                                                      std::uint32_t slot) {
    if (platform.oracle_ == nullptr) return std::nullopt;
    const auto& books = platform.oracle_->ledger_.sessions;
    if (slot >= books.size() || !books[slot].held) return std::nullopt;
    return books[slot].sequence;
  }

  /// The record slot of live session `sequence`, or sim::kNoSlot.
  static std::uint32_t session_slot(Platform& platform,
                                    std::uint64_t sequence) {
    std::uint32_t slot = sim::kNoSlot;
    platform.for_each_live([&](const Platform::SessionState& s) {
      if (s.request.sequence == sequence) slot = s.slot;
    });
    return slot;
  }

  /// Slabs the session-record arena has allocated (it never returns
  /// one, so this is its high-water mark in blocks of 256 sessions).
  static std::size_t session_slabs(const Platform& platform) {
    return platform.sessions_.capacity() / 256;
  }

  /// Outcome slots the platform's streams hold allocated (their buffers'
  /// capacity): 0 once every stream's outcomes were taken.
  static std::size_t outcome_slots(const Platform& platform) {
    std::size_t slots = 0;
    for (const auto& [id, stream] : platform.streams_) {
      (void)id;
      slots += stream.outcomes.capacity();
    }
    return slots;
  }

  /// Runs the oracle's full sweep after every event as well, recording
  /// into `into` (which must outlive the run); false when no oracle is
  /// armed.
  static bool sweep_every_event(Platform& platform, InvariantChecker& into) {
    if (platform.oracle_ == nullptr) return false;
    platform.oracle_->sweep_every_event(&into);
    return true;
  }
};

}  // namespace rattrap::core
