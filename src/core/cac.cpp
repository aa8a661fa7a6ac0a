#include "core/cac.hpp"

#include <cassert>

namespace rattrap::core {

namespace {

kernel::SharedServiceTable image_services(android::OsProfile profile) {
  std::vector<std::string> names;
  for (const auto& spec : profile == android::OsProfile::kStock
                              ? android::stock_services()
                              : android::customized_services()) {
    names.push_back(spec.name);
  }
  return kernel::make_service_table(std::move(names));
}

std::shared_ptr<const android::PropertyStore> image_properties(
    android::OsProfile profile) {
  auto store = std::make_shared<android::PropertyStore>();
  android::populate_build_properties(
      *store, profile == android::OsProfile::kCustomized);
  return store;
}

std::shared_ptr<const container::ContainerConfig> image_config(
    const CacConfig& config, kernel::DevNsId devns) {
  auto cc = std::make_shared<container::ContainerConfig>();
  cc->lower_layers = config.lower_layers;
  cc->cpu_shares = config.cpu_shares;
  cc->memory_limit = config.memory_limit;
  cc->required_features = {
      kernel::kFeatureBinder, kernel::kFeatureAlarm, kernel::kFeatureLogger,
      kernel::kFeatureAshmem, kernel::kFeatureSwSync};
  cc->devns_base = devns;
  return cc;
}

/// The process tree the modified init brings up.
std::shared_ptr<const container::PidNamespace> init_processes() {
  auto tree = std::make_shared<container::PidNamespace>();
  for (const char* name : {"init", "servicemanager", "zygote",
                           "system_server", "offloadcontroller"}) {
    tree->spawn(name);
  }
  return tree;
}

/// The per-CAC delta a first boot writes: app data dirs and logs.
std::shared_ptr<const fs::Layer> seeded_private_layer(
    std::uint64_t seed_bytes) {
  auto seed = std::make_shared<fs::Layer>("private-seed");
  seed->put_file("/data/local/app-data.bin", seed_bytes * 3 / 4);
  seed->put_file("/data/misc/boot.log", seed_bytes / 4);
  return seed;
}

/// A template device namespace with system_server's endpoint holding the
/// image's whole service table.
kernel::DevNsId booted_namespace(kernel::HostKernel& kernel,
                                 kernel::BinderDriver& binder,
                                 const kernel::SharedServiceTable& services) {
  const kernel::DevNsId ns = kernel.device_namespaces().create_template();
  binder.register_services(ns, services, binder.create_endpoint(ns));
  return ns;
}

}  // namespace

CacTemplate::CacTemplate(const CacConfig& config,
                         container::ContainerRuntime& runtime,
                         kernel::AndroidContainerDriver& driver)
    : profile(config.profile),
      cold_boot(android::container_userspace_boot(config.profile, false)),
      warm_boot(android::container_userspace_boot(config.profile, true)),
      services(image_services(config.profile)),
      build_properties(image_properties(config.profile)),
      processes(init_processes()),
      private_seed(seeded_private_layer(config.private_seed_bytes)),
      kernel_(runtime.kernel()) {
  container = image_config(
      config, booted_namespace(kernel_, driver.binder(), services));
  // Whether a CAC can boot at all: a fresh mount shows exactly the lower
  // layers, so one check serves every clone.
  has_framework = fs::UnionFs("probe", config.lower_layers)
                      .exists("/system/framework/core0.jar");
}

CacTemplate::~CacTemplate() {
  kernel_.device_namespaces().destroy(container->devns_base);
}

CloudAndroidContainer::CloudAndroidContainer(
    const CacConfig& config, container::ContainerRuntime& runtime,
    kernel::AndroidContainerDriver& driver)
    : CloudAndroidContainer(
          std::make_unique<const CacTemplate>(config, runtime, driver),
          config.name, config.warm_shared_layer, runtime, driver) {}

CloudAndroidContainer::CloudAndroidContainer(
    std::unique_ptr<const CacTemplate> owned, std::string name,
    bool warm_shared_layer, container::ContainerRuntime& runtime,
    kernel::AndroidContainerDriver& driver)
    : CloudAndroidContainer(*owned, std::move(name), warm_shared_layer,
                            runtime, driver) {
  owned_template_ = std::move(owned);
}

CloudAndroidContainer::CloudAndroidContainer(
    const CacTemplate& tmpl, std::string name, bool warm_shared_layer,
    container::ContainerRuntime& runtime,
    kernel::AndroidContainerDriver& driver)
    : tmpl_(tmpl),
      warm_(warm_shared_layer),
      runtime_(runtime),
      driver_(driver) {
  container_ = &runtime_.create(tmpl.container, std::move(name));
  cid_ = container_->id();
}

CloudAndroidContainer::~CloudAndroidContainer() {
  if (pinned_) {
    kernel::AndroidContainerDriver::unpin(runtime_.kernel());
    pinned_ = false;
  }
  runtime_.destroy(cid_);
}

std::optional<sim::SimDuration> CloudAndroidContainer::start_container(
    kernel::HostKernel& kernel) {
  sim::SimDuration cost = 0;
  // Pin the driver package for this container; it is loaded on first use
  // — the Android Container Driver's whole point: dynamically extending
  // the kernel, no recompile, no reboot (§IV-B1).
  pinned_ = kernel::AndroidContainerDriver::pin(kernel);
  if (!pinned_) {
    cost += driver_.load(kernel);
    pinned_ = kernel::AndroidContainerDriver::pin(kernel);
  }
  const auto start_cost = runtime_.start(cid_);
  if (start_cost && tmpl_.has_framework) return cost + *start_cost;
  // Rootfs integrity: a CAC without the framework core cannot boot (a
  // mis-assembled shared layer must fail fast, not crash zygote later).
  if (start_cost) runtime_.stop(cid_);
  if (pinned_) kernel::AndroidContainerDriver::unpin(kernel);
  pinned_ = false;
  return std::nullopt;
}

void CloudAndroidContainer::finish_boot(sim::SimTime /*now*/) {
  assert(container_ != nullptr);
  if (container_->state() != container::ContainerState::kRunning) {
    // The container died (crash injection) between start and boot
    // completion; the boot event is stale and must not touch dead state.
    return;
  }
  booted_ = true;
  // init's property service comes up first and publishes the image's
  // shared property area plus this container's serial number; the store
  // is built when something reads it.
  properties_pending_ = true;
  // The booted image, by reference: the Android process tree the
  // modified init brings up and the seeded private layer (app data dirs,
  // logs — the per-CAC delta).  Core services are already registered in
  // the binder context the device namespace shadows.
  container_->processes() = container::PidNamespace(tmpl_.processes);
  if (container_->rootfs() != nullptr) {
    container_->rootfs()->set_private_base(tmpl_.private_seed);
  }
  // Charge the runtime's resident memory against the cgroup.
  const std::uint64_t memory = boot_memory();
  if (container_->cgroup() != nullptr &&
      container_->cgroup()->charge_memory(memory)) {
    charged_memory_ = memory;
  }
}

android::PropertyStore& CloudAndroidContainer::properties() {
  if (properties_pending_) {
    properties_ = android::PropertyStore(tmpl_.build_properties);
    properties_.set("ro.serialno", container_->name());
    properties_pending_ = false;
  }
  return properties_;
}

void CloudAndroidContainer::shutdown(kernel::HostKernel& kernel) {
  if (container_ != nullptr) {
    if (charged_memory_ > 0 && container_->cgroup() != nullptr) {
      container_->cgroup()->uncharge_memory(charged_memory_);
      charged_memory_ = 0;
    }
    container_->stop();
  }
  if (pinned_) {
    kernel::AndroidContainerDriver::unpin(kernel);
    pinned_ = false;
  }
  booted_ = false;
}

void CloudAndroidContainer::crash(kernel::HostKernel& kernel) {
  crashed_ = true;
  if (container_ != nullptr) {
    if (charged_memory_ > 0 && container_->cgroup() != nullptr) {
      container_->cgroup()->uncharge_memory(charged_memory_);
      charged_memory_ = 0;
    }
    runtime_.crash(cid_);
  }
  if (pinned_) {
    kernel::AndroidContainerDriver::unpin(kernel);
    pinned_ = false;
  }
  booted_ = false;
}

std::uint64_t CloudAndroidContainer::private_disk_bytes() const {
  return container_ == nullptr ? 0 : container_->private_disk_bytes();
}

std::uint64_t CloudAndroidContainer::reclaim_private_layer() {
  if (container_ == nullptr || container_->rootfs() == nullptr) return 0;
  return container_->rootfs()->drop_private();
}

}  // namespace rattrap::core
