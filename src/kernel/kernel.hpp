// Host kernel: the shared substrate under every container.
//
// Owns the device registry, syscall table, device-namespace manager and
// the loadable-module machinery.  The stock kernel ships the
// general-purpose features (namespaces, cgroups, union mounts) that
// OS-level virtualization relies on; Android-specific features arrive only
// via loadable modules (android_container_driver.hpp), which is the
// paper's mechanism for "running operating systems with differential
// kernel features inside containers".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/device.hpp"
#include "kernel/devns.hpp"
#include "kernel/module.hpp"
#include "kernel/syscalls.hpp"
#include "sim/simulator.hpp"

namespace rattrap::kernel {

class HostKernel {
 public:
  explicit HostKernel(sim::Simulator& simulator);
  HostKernel(const HostKernel&) = delete;
  HostKernel& operator=(const HostKernel&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] DeviceRegistry& devices() { return devices_; }
  [[nodiscard]] SyscallTable& syscalls() { return syscalls_; }
  [[nodiscard]] DeviceNamespaceManager& device_namespaces() {
    return devns_;
  }

  // --- kernel features -----------------------------------------------
  /// True when the kernel currently provides `feature` (built-in or via a
  /// loaded module).
  [[nodiscard]] bool has_feature(std::string_view feature) const;

  /// Adds/removes a feature flag; module load hooks call these.
  void add_feature(std::string feature);
  void remove_feature(std::string_view feature);

  /// Bumped by every add_feature()/remove_feature(): a feature check made
  /// at one epoch holds until the epoch moves.
  [[nodiscard]] std::uint64_t features_epoch() const {
    return features_epoch_;
  }

  // --- loadable modules ------------------------------------------------
  /// Inserts a module. Fails (returning 0 cost and not loading) when a
  /// module of the same name is present or a dependency is missing.
  /// On success returns the simulated insmod cost.
  sim::SimDuration load_module(std::unique_ptr<KernelModule> module);

  [[nodiscard]] bool module_loaded(std::string_view name) const;

  /// Bumps a module's reference count (a container using its devices).
  /// Returns false for unknown modules.
  bool module_get(std::string_view name);

  /// Drops a reference. Returns false when unknown or refcount is zero.
  bool module_put(std::string_view name);

  [[nodiscard]] std::uint32_t module_refcount(std::string_view name) const;

  /// Removes a module. Fails while its refcount is non-zero or another
  /// loaded module depends on it.
  bool unload_module(std::string_view name);

  /// Names of loaded modules (sorted), as in /proc/modules.
  [[nodiscard]] std::vector<std::string> loaded_modules() const;

  /// Formatted /proc/modules-style table: "name refcount" per line.
  [[nodiscard]] std::string proc_modules() const;

 private:
  struct LoadedModule {
    std::unique_ptr<KernelModule> module;
    std::uint32_t refcount = 0;
  };

  sim::Simulator& sim_;
  DeviceRegistry devices_;
  SyscallTable syscalls_;
  DeviceNamespaceManager devns_;
  std::map<std::string, LoadedModule, std::less<>> modules_;
  std::set<std::string, std::less<>> features_;
  std::uint64_t features_epoch_ = 0;
};

}  // namespace rattrap::kernel
