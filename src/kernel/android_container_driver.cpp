#include "kernel/android_container_driver.hpp"

#include <array>
#include <utility>

namespace rattrap::kernel {
namespace {

/// Generic module wrapping one namespace-aware pseudo driver: registers
/// the device node, a feature flag and the Android syscalls on load, and
/// removes them on unload.
class PseudoDriverModule final : public KernelModule {
 public:
  struct Hooks {
    std::function<void(HostKernel&)> attach;
    std::function<void(HostKernel&)> detach;
  };

  PseudoDriverModule(std::string name, std::shared_ptr<Device> device,
                     std::string feature, Hooks hooks)
      : name_(std::move(name)),
        device_(std::move(device)),
        feature_(std::move(feature)),
        hooks_(std::move(hooks)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  void on_load(HostKernel& kernel) override {
    kernel.devices().add(device_.get());
    kernel.add_feature(feature_);
    if (hooks_.attach) hooks_.attach(kernel);
  }

  void on_unload(HostKernel& kernel) override {
    if (hooks_.detach) hooks_.detach(kernel);
    kernel.remove_feature(feature_);
    kernel.devices().remove(device_->dev_path());
  }

 private:
  std::string name_;
  std::shared_ptr<Device> device_;
  std::string feature_;
  Hooks hooks_;
};

}  // namespace

AndroidContainerDriver::AndroidContainerDriver(sim::Simulator& simulator)
    : binder_(std::make_shared<BinderDriver>()),
      alarm_(std::make_shared<AlarmDriver>(simulator)),
      logger_(std::make_shared<LoggerDriver>()),
      ashmem_(std::make_shared<AshmemDriver>()),
      sw_sync_(std::make_shared<SwSyncDriver>()) {}

sim::SimDuration AndroidContainerDriver::load(HostKernel& kernel) {
  if (loaded(kernel)) return 0;
  sim::SimDuration cost = 0;

  if (!kernel.module_loaded(kModBinder)) {
    const auto& binder = binder_;
    cost += kernel.load_module(std::make_unique<PseudoDriverModule>(
        kModBinder, binder_, kFeatureBinder,
        PseudoDriverModule::Hooks{
            [binder](HostKernel& k) {
              k.syscalls().add(
                  kSysBinderTransact,
                  [binder](DevNsId ns, std::uint64_t bytes) {
                    const auto cost_opt = binder->transact(
                        ns, kServiceManagerHandle, kServiceManagerHandle,
                        bytes);
                    if (!cost_opt) {
                      return SyscallResult{KernelError::kDeadObject, -1, 2};
                    }
                    return SyscallResult{KernelError::kOk, 0, *cost_opt};
                  });
            },
            [](HostKernel& k) { k.syscalls().remove(kSysBinderTransact); }}));
  }

  if (!kernel.module_loaded(kModAlarm)) {
    cost += kernel.load_module(std::make_unique<PseudoDriverModule>(
        kModAlarm, alarm_, kFeatureAlarm,
        PseudoDriverModule::Hooks{
            [](HostKernel& k) {
              k.syscalls().add(kSysAlarmSet,
                               [](DevNsId, std::uint64_t) {
                                 return SyscallResult{KernelError::kOk, 0, 3};
                               });
            },
            [](HostKernel& k) { k.syscalls().remove(kSysAlarmSet); }}));
  }

  if (!kernel.module_loaded(kModLogger)) {
    auto logger = logger_;
    cost += kernel.load_module(std::make_unique<PseudoDriverModule>(
        kModLogger, logger_, kFeatureLogger,
        PseudoDriverModule::Hooks{
            [logger](HostKernel& k) {
              k.syscalls().add(kSysLogWrite,
                               [logger](DevNsId ns, std::uint64_t bytes) {
                                 logger->write(ns, "app",
                                               static_cast<std::uint32_t>(
                                                   bytes));
                                 return SyscallResult{KernelError::kOk, 0, 2};
                               });
            },
            [](HostKernel& k) { k.syscalls().remove(kSysLogWrite); }}));
  }
  if (!kernel.module_loaded(kModAshmem)) {
    const auto& ashmem = ashmem_;
    cost += kernel.load_module(std::make_unique<PseudoDriverModule>(
        kModAshmem, ashmem_, kFeatureAshmem,
        PseudoDriverModule::Hooks{
            [ashmem](HostKernel& k) {
              k.syscalls().add(kSysAshmemCreate,
                               [ashmem](DevNsId ns, std::uint64_t bytes) {
                                 const AshmemId id = ashmem->create_region(
                                     ns, "app-region", bytes);
                                 return SyscallResult{
                                     KernelError::kOk,
                                     static_cast<std::int64_t>(id), 4};
                               });
            },
            [](HostKernel& k) { k.syscalls().remove(kSysAshmemCreate); }}));
  }

  if (!kernel.module_loaded(kModSwSync)) {
    cost += kernel.load_module(std::make_unique<PseudoDriverModule>(
        kModSwSync, sw_sync_, kFeatureSwSync,
        PseudoDriverModule::Hooks{
            [](HostKernel& k) {
              k.syscalls().add(kSysSyncWait,
                               [](DevNsId, std::uint64_t) {
                                 return SyscallResult{KernelError::kOk, 0, 3};
                               });
            },
            [](HostKernel& k) { k.syscalls().remove(kSysSyncWait); }}));
  }

  return cost;
}

bool AndroidContainerDriver::unload(HostKernel& kernel) {
  // The package's modules carry no inter-module deps; unload all or none.
  for (const char* name :
       {kModBinder, kModAlarm, kModLogger, kModAshmem, kModSwSync}) {
    if (kernel.module_refcount(name) != 0) return false;
  }
  bool ok = true;
  for (const char* name :
       {kModSwSync, kModAshmem, kModLogger, kModAlarm, kModBinder}) {
    if (kernel.module_loaded(name)) ok &= kernel.unload_module(name);
  }
  return ok;
}

bool AndroidContainerDriver::loaded(const HostKernel& kernel) {
  for (const char* name :
       {kModBinder, kModAlarm, kModLogger, kModAshmem, kModSwSync}) {
    if (!kernel.module_loaded(name)) return false;
  }
  return true;
}

bool AndroidContainerDriver::pin(HostKernel& kernel) {
  constexpr std::array<const char*, 5> kModules = {
      kModBinder, kModAlarm, kModLogger, kModAshmem, kModSwSync};
  for (std::size_t i = 0; i < kModules.size(); ++i) {
    if (kernel.module_get(kModules[i])) continue;
    // Not loaded: take back the pins already taken.
    while (i-- > 0) kernel.module_put(kModules[i]);
    return false;
  }
  return true;
}

bool AndroidContainerDriver::unpin(HostKernel& kernel) {
  bool ok = true;
  for (const char* name :
       {kModBinder, kModAlarm, kModLogger, kModAshmem, kModSwSync}) {
    ok &= kernel.module_put(name);
  }
  return ok;
}

}  // namespace rattrap::kernel
