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

}  // namespace

CacTemplate::CacTemplate(const CacConfig& config)
    : profile(config.profile),
      cold_boot(android::container_userspace_boot(config.profile, false)),
      warm_boot(android::container_userspace_boot(config.profile, true)),
      services(image_services(config.profile)),
      build_properties(image_properties(config.profile)),
      private_seed_bytes(config.private_seed_bytes) {
  container.lower_layers = config.lower_layers;
  container.cpu_shares = config.cpu_shares;
  container.memory_limit = config.memory_limit;
  container.required_features = {
      kernel::kFeatureBinder, kernel::kFeatureAlarm, kernel::kFeatureLogger,
      kernel::kFeatureAshmem, kernel::kFeatureSwSync};
}

CloudAndroidContainer::CloudAndroidContainer(
    const CacConfig& config, container::ContainerRuntime& runtime,
    kernel::AndroidContainerDriver& driver)
    : CloudAndroidContainer(CacTemplate(config), config.name,
                            config.warm_shared_layer, runtime, driver) {}

CloudAndroidContainer::CloudAndroidContainer(
    const CacTemplate& tmpl, std::string name, bool warm_shared_layer,
    container::ContainerRuntime& runtime,
    kernel::AndroidContainerDriver& driver)
    : boot_(tmpl.boot(warm_shared_layer)),
      services_(tmpl.services),
      build_properties_(tmpl.build_properties),
      private_seed_bytes_(tmpl.private_seed_bytes),
      runtime_(runtime),
      driver_(driver) {
  container::ContainerConfig cc = tmpl.container;
  cc.name = std::move(name);
  container_ = &runtime_.create(std::move(cc));
  cid_ = container_->id();
}

CloudAndroidContainer::~CloudAndroidContainer() {
  // The runtime owns the container object; we only release driver pins.
  if (pinned_) {
    kernel::AndroidContainerDriver::unpin(runtime_.kernel());
    pinned_ = false;
  }
}

std::optional<sim::SimDuration> CloudAndroidContainer::start_container(
    kernel::HostKernel& kernel) {
  sim::SimDuration cost = 0;
  // Dynamically extend the kernel on first use — the Android Container
  // Driver's whole point: no recompile, no reboot (§IV-B1).
  if (!kernel::AndroidContainerDriver::loaded(kernel)) {
    cost += driver_.load(kernel);
  }
  const auto start_cost = runtime_.start(cid_);
  if (!start_cost) return std::nullopt;
  cost += *start_cost;
  // Rootfs integrity: a CAC without the framework core cannot boot (a
  // mis-assembled shared layer must fail fast, not crash zygote later).
  if (container_->rootfs() == nullptr ||
      !container_->rootfs()->exists("/system/framework/core0.jar")) {
    runtime_.stop(cid_);
    return std::nullopt;
  }
  kernel::AndroidContainerDriver::pin(kernel);
  pinned_ = true;
  return cost;
}

void CloudAndroidContainer::finish_boot(sim::SimTime now) {
  assert(container_ != nullptr);
  if (container_->state() != container::ContainerState::kRunning) {
    // The container died (crash injection) between start and boot
    // completion; the boot event is stale and must not touch dead state.
    return;
  }
  booted_ = true;
  // init's property service comes up first and publishes the build info
  // plus the faked-service markers — the image's shared property area —
  // and this container's serial number.
  properties_ = android::PropertyStore(build_properties_);
  properties_.set("ro.serialno", container_->name());
  // The Android process tree the modified init brings up.
  auto& pid_ns = container_->namespaces().pid;
  pid_ns.spawn("init");
  pid_ns.spawn("servicemanager");
  pid_ns.spawn("zygote");
  pid_ns.spawn("system_server");
  pid_ns.spawn("offloadcontroller");
  // Register core services with the per-namespace binder context.
  const kernel::DevNsId ns = container_->devns();
  auto& binder = driver_.binder();
  binder.register_services(ns, services_, binder.create_endpoint(ns));
  // Seed the private layer (app data dirs, logs) — the per-CAC delta.
  if (container_->rootfs() != nullptr) {
    container_->rootfs()->write("/data/local/app-data.bin",
                                private_seed_bytes_ * 3 / 4, now);
    container_->rootfs()->write("/data/misc/boot.log",
                                private_seed_bytes_ / 4, now);
  }
  // Charge the runtime's resident memory against the cgroup.
  const std::uint64_t memory = boot_.boot_memory;
  if (container_->cgroup() != nullptr &&
      container_->cgroup()->charge_memory(memory)) {
    charged_memory_ = memory;
  }
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
  return container_->rootfs()->purge_top_layer();
}

}  // namespace rattrap::core
