// Container object and lifecycle (LXC-like).
//
// A container is namespaces + cgroup + a union-mounted rootfs on a shared
// kernel.  Starting one costs milliseconds (clone, pivot_root, veth
// setup), which is why the paper's Cloud Android Container boots ~16x
// faster than an Android VM: the expensive part that remains is the
// *userspace* boot, handled by the android module.
//
// Containers cloned from one image share its ContainerConfig (held by
// shared_ptr) and carry only their id and name; their device namespace
// starts as a shadow of the config's template namespace, and the strings
// derived from the name (hostname, veth, address) are built only when
// namespaces() is read.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <string>
#include <vector>

#include "container/cgroup.hpp"
#include "container/namespaces.hpp"
#include "fs/union_fs.hpp"
#include "kernel/device.hpp"
#include "kernel/kernel.hpp"
#include "sim/time.hpp"

namespace rattrap::container {

enum class ContainerState : std::uint8_t {
  kCreated,
  kRunning,
  kStopped,
  kDestroyed,
};

[[nodiscard]] const char* to_string(ContainerState state);

using ContainerId = std::uint32_t;

struct ContainerConfig {
  std::string name;
  /// Read-only lower layers (bottom-most first) for the rootfs union.
  std::vector<std::shared_ptr<const fs::Layer>> lower_layers;
  std::uint32_t cpu_shares = 1024;
  std::uint64_t memory_limit = 512ull * 1024 * 1024;
  /// Quota on the container's private (COW top) layer; 0 = unlimited.
  std::uint64_t disk_quota = 0;
  /// Kernel features the container's userspace requires to run; start()
  /// fails when any is missing (the incompatibility OS-level
  /// virtualization hits without the Android Container Driver).
  std::vector<std::string> required_features;
  /// Template device namespace (DeviceNamespaceManager::create_template)
  /// whose booted driver state each start's namespace shadows;
  /// kHostDevNs starts every namespace empty.
  kernel::DevNsId devns_base = kernel::kHostDevNs;
};

class Container {
 public:
  /// A container named `name` over a (possibly shared) `config`; the
  /// config's own name is not read.
  Container(ContainerId id, std::shared_ptr<const ContainerConfig> config,
            std::string name, kernel::HostKernel& k);
  ~Container();

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  [[nodiscard]] ContainerId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ContainerState state() const { return state_; }
  [[nodiscard]] const ContainerConfig& config() const { return *config_; }
  [[nodiscard]] const std::shared_ptr<const ContainerConfig>& shared_config()
      const {
    return config_;
  }

  /// Starts the container in `cgroup` (its cgroup from then on): creates
  /// namespaces and the device namespace, union-mounts the rootfs and
  /// charges base memory.  Returns the simulated cost, or std::nullopt on
  /// failure (out of memory, device namespace torn down), leaving state
  /// unchanged.  Kernel features are the runtime's check
  /// (ContainerRuntime::start).
  std::optional<sim::SimDuration> start(Cgroup& cgroup);

  /// Stops the container: kills all processes, destroys the device
  /// namespace, releases memory. Returns the simulated cost.
  sim::SimDuration stop();

  /// Destroys a stopped container (rootfs delta discarded).
  void destroy();

  /// Live accessors; only valid while running.  namespaces() names the
  /// network and uts namespaces on first read after a start.
  [[nodiscard]] NamespaceSet& namespaces();
  [[nodiscard]] PidNamespace& processes() { return namespaces_.pid; }
  [[nodiscard]] fs::UnionFs* rootfs() {
    return rootfs_ ? &*rootfs_ : nullptr;
  }
  [[nodiscard]] const fs::UnionFs* rootfs() const {
    return rootfs_ ? &*rootfs_ : nullptr;
  }
  [[nodiscard]] kernel::DevNsId devns() const { return devns_; }
  [[nodiscard]] Cgroup* cgroup() const { return cgroup_; }

  /// Private disk footprint: the container's writable layer only.
  [[nodiscard]] std::uint64_t private_disk_bytes() const;

  /// Writes into the rootfs honouring the disk quota. Returns false (and
  /// writes nothing) when the quota would be exceeded.
  bool write_file(std::string_view path, std::uint64_t size,
                  sim::SimTime now);

 private:
  ContainerId id_;
  std::shared_ptr<const ContainerConfig> config_;
  std::string name_;
  kernel::HostKernel& kernel_;
  ContainerState state_ = ContainerState::kCreated;
  NamespaceSet namespaces_;
  bool namespaces_named_ = false;  ///< net/uts filled since the last start
  std::optional<fs::UnionFs> rootfs_;
  kernel::DevNsId devns_ = kernel::kHostDevNs;
  Cgroup* cgroup_ = nullptr;
  std::uint64_t base_memory_ = 0;
};

}  // namespace rattrap::container
