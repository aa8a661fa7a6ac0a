// Device namespaces: per-container isolation and multiplexing of pseudo
// devices (binder/alarm/logger), after Cells [17].
//
// The original device-namespace framework targets one foreground phone and
// several background phones on a single device; Rattrap modifies the
// workflow for the cloud (§IV-B1): *all* namespaces are concurrently
// active, there is no foreground switch, and namespaces are created and
// destroyed with container lifecycle at much higher churn.  The manager
// hands out namespace ids and broadcasts lifecycle to every registered
// device driver.
//
// A template namespace holds booted driver state (a CAC template's binder
// service manager and system_server endpoint) once; a namespace created
// over it starts as a copy-on-write shadow of that state, so a clone's
// namespace costs no driver work until it writes.
#pragma once

#include <cstdint>

#include "kernel/device.hpp"
#include "sim/fault.hpp"
#include "sim/flat_hash.hpp"

namespace rattrap::kernel {

class DeviceNamespaceManager {
 public:
  explicit DeviceNamespaceManager(DeviceRegistry& registry)
      : registry_(registry) {}

  /// Allocates a fresh namespace and notifies all drivers.  With a
  /// `base`, the drivers start the namespace as a shadow of the base's
  /// state (see create_template()).
  DevNsId create(DevNsId base = kHostDevNs);

  /// Allocates a template namespace: drivers build booted state in it
  /// for create(base) namespaces to shadow.  It is never entered by a
  /// container and does not consult the fault injector.
  DevNsId create_template();

  /// Destroys a namespace; all per-namespace driver state is torn down.
  /// Returns false for unknown/already-destroyed ids.
  bool destroy(DevNsId ns);

  [[nodiscard]] bool alive(DevNsId ns) const { return active_.contains(ns); }
  [[nodiscard]] std::size_t count() const { return active_.size(); }

  /// Total namespaces ever created (monotonic).
  [[nodiscard]] std::uint64_t created_total() const { return next_ - 1; }

  /// Attaches a fault injector: create() consults kDevNsTeardown; a fired
  /// fault tears the fresh namespace down immediately (drivers see
  /// created-then-destroyed), returning an id that is already dead —
  /// callers must check alive(). nullptr detaches.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Namespaces killed at birth by injection.
  [[nodiscard]] std::uint64_t injected_teardowns() const {
    return injected_teardowns_;
  }

 private:
  DevNsId allocate(DevNsId base);

  DeviceRegistry& registry_;
  sim::FlatHashMap<DevNsId, bool> active_;  ///< live ids, as a set
  DevNsId next_ = 1;  // 0 is the host namespace, never handed out
  sim::FaultInjector* faults_ = nullptr;
  std::uint64_t injected_teardowns_ = 0;
};

}  // namespace rattrap::kernel
