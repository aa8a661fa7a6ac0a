#include "kernel/device.hpp"

namespace rattrap::kernel {

bool DeviceRegistry::add(Device* device) {
  if (device == nullptr) return false;
  auto [it, inserted] = devices_.emplace(device->dev_path(), device);
  (void)it;
  return inserted;
}

bool DeviceRegistry::remove(std::string_view dev_path) {
  const auto it = devices_.find(dev_path);
  if (it == devices_.end()) return false;
  devices_.erase(it);
  return true;
}

Device* DeviceRegistry::find(std::string_view dev_path) const {
  const auto it = devices_.find(dev_path);
  return it == devices_.end() ? nullptr : it->second;
}

void DeviceRegistry::namespace_created(DevNsId ns, DevNsId base) {
  for (auto& [path, device] : devices_) {
    (void)path;
    device->on_namespace_created(ns, base);
  }
}

void DeviceRegistry::namespace_destroyed(DevNsId ns) {
  for (auto& [path, device] : devices_) {
    (void)path;
    device->on_namespace_destroyed(ns);
  }
}

}  // namespace rattrap::kernel
