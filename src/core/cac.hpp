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
// the same Customized OS into the same state, so a CacTemplate holds both
// the provision inputs and a booted image, built once per profile:
//   * the shared ContainerConfig (lower layers, kernel features, limits);
//   * a template device namespace whose binder context already has
//     system_server registered with the image's service table — each
//     CAC's namespace shadows it and copies it only when it writes (the
//     alarm, logger, ashmem and sw_sync drivers boot with no state);
//   * the init process tree as one shared PidNamespace snapshot;
//   * the seeded private layer (app data dirs, logs: Table I's delta),
//     which each CAC's rootfs shadows copy-on-write.
// Provisioning a CAC clones these by reference, and reclaim drops the
// CAC's own delta and hands its container and cgroup back to the runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "android/boot.hpp"
#include "android/classloader.hpp"
#include "android/properties.hpp"
#include "container/namespaces.hpp"
#include "container/runtime.hpp"
#include "fs/layer.hpp"
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

/// The environment-independent part of a CacConfig with the boot model
/// evaluated once, plus the state a boot leaves behind: what every CAC of
/// one profile is cloned from.
class CacTemplate {
 public:
  /// Builds and boots the template from `config` (its name and warm flag
  /// are per-CAC, not used) on `runtime`'s kernel and `driver`'s binder.
  /// Consults no fault injector and loads no module.
  CacTemplate(const CacConfig& config, container::ContainerRuntime& runtime,
              kernel::AndroidContainerDriver& driver);
  /// Releases the template device namespace.
  ~CacTemplate();

  CacTemplate(const CacTemplate&) = delete;
  CacTemplate& operator=(const CacTemplate&) = delete;

  android::OsProfile profile;
  /// Container skeleton every clone shares: lower layers, required kernel
  /// features, memory limit, cpu shares and the template device
  /// namespace.  Each CAC adds only its name.
  std::shared_ptr<const container::ContainerConfig> container;
  /// Userspace boot plans for a cold and a page-cached shared layer.
  android::UserspaceBoot cold_boot;
  android::UserspaceBoot warm_boot;
  /// The services system_server registers at boot, as one binder table.
  kernel::SharedServiceTable services;
  /// The build properties init publishes; each CAC adds ro.serialno.
  std::shared_ptr<const android::PropertyStore> build_properties;
  /// The process tree the modified init brings up.
  std::shared_ptr<const container::PidNamespace> processes;
  /// The private layer a boot seeds (app data dirs, logs).
  std::shared_ptr<const fs::Layer> private_seed;
  /// Whether the lower layers hold the framework core a boot needs.
  bool has_framework = false;

  [[nodiscard]] const android::UserspaceBoot& boot(bool warm) const {
    return warm ? warm_boot : cold_boot;
  }

 private:
  kernel::HostKernel& kernel_;
};

class CloudAndroidContainer {
 public:
  /// A standalone CAC described by `config` alone: cloned from a
  /// template of its own.
  CloudAndroidContainer(const CacConfig& config,
                        container::ContainerRuntime& runtime,
                        kernel::AndroidContainerDriver& driver);
  /// A CAC cloned from a shared template, which must outlive its boot;
  /// `warm_shared_layer` picks the boot plan it keeps.
  CloudAndroidContainer(const CacTemplate& tmpl, std::string name,
                        bool warm_shared_layer,
                        container::ContainerRuntime& runtime,
                        kernel::AndroidContainerDriver& driver);
  /// Releases driver pins and hands the container and its cgroup back to
  /// the runtime.
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
  ///   3. finish_boot(now): marks booted and installs the template's
  ///      booted state — the Android process tree and the seeded private
  ///      layer — by reference, and charges memory.  The binder context
  ///      came with the device namespace.
  std::optional<sim::SimDuration> start_container(
      kernel::HostKernel& kernel);
  [[nodiscard]] const android::UserspaceBoot& userspace_boot() const {
    return tmpl_.boot(warm_);
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
  /// lower layers and the template's seed are untouched, the per-CAC
  /// delta is gone.  Returns the bytes freed.
  std::uint64_t reclaim_private_layer();

  /// Resident memory once booted.
  [[nodiscard]] std::uint64_t boot_memory() const {
    return userspace_boot().boot_memory;
  }

  [[nodiscard]] android::ClassLoader& classloader() { return loader_; }
  /// The property store; the boot's properties (the image's build
  /// properties plus ro.serialno) are published on first read.
  [[nodiscard]] android::PropertyStore& properties();
  [[nodiscard]] container::Container* container() { return container_; }

 private:
  CloudAndroidContainer(std::unique_ptr<const CacTemplate> owned,
                        std::string name, bool warm_shared_layer,
                        container::ContainerRuntime& runtime,
                        kernel::AndroidContainerDriver& driver);

  std::unique_ptr<const CacTemplate> owned_template_;  ///< standalone only
  const CacTemplate& tmpl_;
  bool warm_;
  container::ContainerRuntime& runtime_;
  kernel::AndroidContainerDriver& driver_;
  container::Container* container_ = nullptr;
  container::ContainerId cid_ = 0;
  android::ClassLoader loader_;
  android::PropertyStore properties_;
  bool properties_pending_ = false;  ///< booted, properties not built yet
  bool booted_ = false;
  bool pinned_ = false;
  bool crashed_ = false;
  std::uint64_t charged_memory_ = 0;
};

}  // namespace rattrap::core
