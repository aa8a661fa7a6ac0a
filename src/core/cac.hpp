// Cloud Android Container: the paper's runtime environment (§IV-B).
//
// A CAC is an LXC-style container whose rootfs unions the (customized or
// stock) Android image, pinned to the Android Container Driver modules,
// booting through the modified-init sequence.  This class composes the
// container runtime, kernel driver package and Android boot model into a
// single environment object; asynchronous provisioning is orchestrated by
// the offload engine.
//
// Every CAC of one OS profile stacks on the same lower layers and boots
// the same Customized OS, so the inputs a provision does not take from
// its environment live in one CacTemplate per profile: the platform
// builds it once and every CAC copies from it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "android/boot.hpp"
#include "android/classloader.hpp"
#include "android/properties.hpp"
#include "container/runtime.hpp"
#include "kernel/android_container_driver.hpp"

namespace rattrap::core {

struct CacConfig {
  std::string name;
  android::OsProfile profile = android::OsProfile::kCustomized;
  /// Lower layer(s) for the rootfs: the Shared Resource Layer system
  /// image, or a private full copy for the non-optimized variant.
  std::vector<std::shared_ptr<const fs::Layer>> lower_layers;
  std::uint64_t memory_limit = 96ull * 1024 * 1024;
  std::uint32_t cpu_shares = 1024;
  /// Marks that the shared system layer is already page-cached by an
  /// earlier CAC boot (removes most boot-time disk reads).
  bool warm_shared_layer = false;
  /// Private writable-layer bytes materialized at first boot (app data
  /// directories, logs — the ~7.1 MB Table I reports per optimized CAC).
  std::uint64_t private_seed_bytes = 7340032;  // 7.0 MiB
};

/// The environment-independent part of a CacConfig, with the boot model
/// evaluated once: what every CAC of one profile shares.
struct CacTemplate {
  /// Built from `config`; its name and warm flag are per-CAC, not used.
  explicit CacTemplate(const CacConfig& config);

  android::OsProfile profile;
  /// Container skeleton: lower layers, required kernel features, memory
  /// limit and cpu shares.  Each CAC fills in only its name.
  container::ContainerConfig container;
  /// Userspace boot plans for a cold and a page-cached shared layer.
  android::UserspaceBoot cold_boot;
  android::UserspaceBoot warm_boot;
  /// The services system_server registers at boot, as one binder table.
  kernel::SharedServiceTable services;
  /// The build properties init publishes; each CAC adds ro.serialno.
  std::shared_ptr<const android::PropertyStore> build_properties;
  std::uint64_t private_seed_bytes;

  [[nodiscard]] const android::UserspaceBoot& boot(bool warm) const {
    return warm ? warm_boot : cold_boot;
  }
};

class CloudAndroidContainer {
 public:
  /// A standalone CAC described by `config` alone.
  CloudAndroidContainer(const CacConfig& config,
                        container::ContainerRuntime& runtime,
                        kernel::AndroidContainerDriver& driver);
  /// A CAC copied from a shared template; `warm_shared_layer` picks the
  /// boot plan it keeps.
  CloudAndroidContainer(const CacTemplate& tmpl, std::string name,
                        bool warm_shared_layer,
                        container::ContainerRuntime& runtime,
                        kernel::AndroidContainerDriver& driver);
  ~CloudAndroidContainer();

  CloudAndroidContainer(const CloudAndroidContainer&) = delete;
  CloudAndroidContainer& operator=(const CloudAndroidContainer&) = delete;

  [[nodiscard]] container::ContainerId cid() const { return cid_; }
  [[nodiscard]] bool booted() const { return booted_; }

  /// Synchronous provisioning pieces.  The engine drives the async boot:
  ///   1. start_container(): namespaces + cgroup + ACD load/pin; returns
  ///      the container-runtime cost, or nullopt on failure (missing
  ///      kernel feature / memory limit).
  ///   2. userspace_boot(): the Android boot breakdown (cpu components +
  ///      disk bytes) the engine turns into simulator/disk events — the
  ///      plan the CAC was provisioned with.
  ///   3. finish_boot(now): marks booted, spawns the Android process
  ///      tree, charges memory and seeds the private layer.
  std::optional<sim::SimDuration> start_container(
      kernel::HostKernel& kernel);
  [[nodiscard]] const android::UserspaceBoot& userspace_boot() const {
    return boot_;
  }
  void finish_boot(sim::SimTime now);

  /// Stops the container and releases driver pins and memory.
  void shutdown(kernel::HostKernel& kernel);

  /// Crash-kills the container (fault injection): abrupt death with the
  /// same kernel-side reaping as shutdown, flagged so the platform's
  /// Monitor can distinguish a crashed CAC from a reclaimed one.
  void crash(kernel::HostKernel& kernel);

  [[nodiscard]] bool crashed() const { return crashed_; }

  /// The container's private (copy-on-write top layer) disk bytes.
  [[nodiscard]] std::uint64_t private_disk_bytes() const;

  /// Discards the private COW layer (drain-based reclaim): the shared
  /// lower layers are untouched, the per-CAC delta is gone.  Returns the
  /// bytes freed.
  std::uint64_t reclaim_private_layer();

  /// Resident memory once booted.
  [[nodiscard]] std::uint64_t boot_memory() const {
    return boot_.boot_memory;
  }

  [[nodiscard]] android::ClassLoader& classloader() { return loader_; }
  [[nodiscard]] android::PropertyStore& properties() { return properties_; }
  [[nodiscard]] container::Container* container() { return container_; }

 private:
  android::UserspaceBoot boot_;
  kernel::SharedServiceTable services_;
  std::shared_ptr<const android::PropertyStore> build_properties_;
  std::uint64_t private_seed_bytes_;
  container::ContainerRuntime& runtime_;
  kernel::AndroidContainerDriver& driver_;
  container::Container* container_ = nullptr;
  container::ContainerId cid_ = 0;
  android::ClassLoader loader_;
  android::PropertyStore properties_;
  bool booted_ = false;
  bool pinned_ = false;
  bool crashed_ = false;
  std::uint64_t charged_memory_ = 0;
};

}  // namespace rattrap::core
