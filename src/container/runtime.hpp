// Container runtime: creates, tracks and reaps containers (the lxc-*
// command surface).
//
// Containers and their cgroups live from create() to destroy(), so a
// caller that destroys what it reclaims keeps both maps at its live
// population.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "container/cgroup.hpp"
#include "container/container.hpp"
#include "kernel/kernel.hpp"
#include "sim/flat_hash.hpp"

namespace rattrap::container {

class ContainerRuntime {
 public:
  explicit ContainerRuntime(kernel::HostKernel& kernel) : kernel_(kernel) {}

  /// Creates a container in the kCreated state.
  Container& create(ContainerConfig config);

  /// Creates a container named `name` over a config many containers
  /// share (a container image); the config's own name is not read.
  Container& create(std::shared_ptr<const ContainerConfig> config,
                    std::string name);

  /// Starts a container by id: checks the kernel features its config
  /// requires (once per shared config and kernel feature epoch), and
  /// allocates its cgroup from the hierarchy on its first start.
  /// Returns the simulated start cost or std::nullopt on failure.
  std::optional<sim::SimDuration> start(ContainerId id);

  /// Stops a running container. Returns the cost (0 when not running).
  sim::SimDuration stop(ContainerId id);

  /// Crash-kills a running container (SIGKILL to init / OOM-kill): no
  /// graceful shutdown cost, but namespaces, devices and memory charges
  /// are reaped exactly as a clean stop reaps them — the kernel does that
  /// regardless of how the processes died. Returns false when the
  /// container is absent or not running.
  bool crash(ContainerId id);

  /// Containers crash-killed so far (fault-injection accounting).
  [[nodiscard]] std::uint64_t crash_count() const { return crashes_; }

  /// Stops if needed, then destroys and removes the container and its
  /// cgroup.
  bool destroy(ContainerId id);

  [[nodiscard]] Container* find(ContainerId id);
  [[nodiscard]] const Container* find(ContainerId id) const;
  [[nodiscard]] std::size_t count() const { return containers_.size(); }
  [[nodiscard]] std::size_t running_count() const;
  /// Ids of the containers not yet destroyed, ascending.
  [[nodiscard]] std::vector<ContainerId> ids() const;

  [[nodiscard]] CgroupHierarchy& cgroups() { return cgroups_; }
  [[nodiscard]] kernel::HostKernel& kernel() { return kernel_; }

 private:
  /// Whether the kernel provides every feature `config` requires.
  bool features_present(const std::shared_ptr<const ContainerConfig>& config);

  kernel::HostKernel& kernel_;
  CgroupHierarchy cgroups_;
  sim::FlatHashMap<ContainerId, std::unique_ptr<Container>> containers_;
  ContainerId next_id_ = 1;
  std::uint64_t crashes_ = 0;
  /// The last config whose features were all present, and the kernel's
  /// feature epoch then: clones of one image skip the string lookups.
  std::shared_ptr<const ContainerConfig> features_checked_;
  std::uint64_t features_epoch_ = 0;
};

}  // namespace rattrap::container
