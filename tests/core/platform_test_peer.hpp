// Test-only access to Platform internals (Platform befriends this struct;
// only tests define it).  Tests use it to force states the engine never
// produces — an illegal table transition, a planted invariant violation —
// and to run the invariant oracle's full sweep after every event.
#pragma once

#include <cstddef>
#include <string>

#include "core/oracle.hpp"
#include "core/platform.hpp"
#include "core/platform_state.hpp"

namespace rattrap::core {

struct PlatformTestPeer {
  static EnvTable& env_table(Platform& platform) {
    return platform.env_table_;
  }
  static Platform::Env& env(Platform& platform, EnvId id) {
    return platform.env_of(id);
  }
  /// The platform's CAC template, built on first use.
  static const CacTemplate& cac_template(Platform& platform) {
    return platform.cac_template();
  }
  /// Boots one warm-pool environment, ignoring the memory budget.
  static void prewarm(Platform& platform) { platform.prewarm_env(); }

  /// Reports a touch point the way the mutation site a plant stands in
  /// for does (a defective site still says what it changed).
  static void touch_env(Platform& platform, EnvId id) {
    if (platform.oracle_ != nullptr) platform.oracle_->touch_env(id);
  }
  static void touch_tenant(Platform& platform, const std::string& tenant) {
    if (platform.oracle_ != nullptr) platform.oracle_->touch_tenant(tenant);
  }

  /// Slabs the session-record pool has allocated (it never returns
  /// one, so this is its high-water mark in blocks of 256 sessions).
  static std::size_t session_slabs(const Platform& platform) {
    return platform.session_pool_->slab_count();
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
