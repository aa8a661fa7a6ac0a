#include "container/container.hpp"

#include <cassert>

namespace rattrap::container {

namespace {
// Calibrated lifecycle costs: clone+setns ~ 1 ms per namespace, veth pair
// ~ 3 ms, union mount ~ 4 ms, cgroup attach ~ 1 ms.
constexpr sim::SimDuration kNamespaceCost = sim::kMillisecond;
constexpr std::size_t kNamespaceKinds = 5;
constexpr sim::SimDuration kVethCost = 3 * sim::kMillisecond;
constexpr sim::SimDuration kUnionMountCost = 4 * sim::kMillisecond;
constexpr sim::SimDuration kCgroupCost = sim::kMillisecond;
constexpr sim::SimDuration kStopCost = 8 * sim::kMillisecond;
// Base kernel-side memory of an empty container (page tables, structs).
constexpr std::uint64_t kBaseMemory = 4ull * 1024 * 1024;
}  // namespace

const char* to_string(ContainerState state) {
  switch (state) {
    case ContainerState::kCreated:
      return "created";
    case ContainerState::kRunning:
      return "running";
    case ContainerState::kStopped:
      return "stopped";
    case ContainerState::kDestroyed:
      return "destroyed";
  }
  return "?";
}

Container::Container(ContainerId id,
                     std::shared_ptr<const ContainerConfig> config,
                     std::string name, kernel::HostKernel& k)
    : id_(id), config_(std::move(config)), name_(std::move(name)),
      kernel_(k) {}

Container::~Container() {
  if (state_ == ContainerState::kRunning) stop();
}

std::optional<sim::SimDuration> Container::start(Cgroup& cgroup) {
  if (state_ != ContainerState::kCreated &&
      state_ != ContainerState::kStopped) {
    return std::nullopt;
  }
  cgroup_ = &cgroup;
  if (!cgroup.charge_memory(kBaseMemory)) return std::nullopt;

  base_memory_ = kBaseMemory;
  // The rootfs is named after its container.
  rootfs_.emplace(name_, config_->lower_layers);
  namespaces_ = NamespaceSet{};
  namespaces_named_ = false;
  namespaces_.ipc.id = id_;
  devns_ = kernel_.device_namespaces().create(config_->devns_base);
  if (!kernel_.device_namespaces().alive(devns_)) {
    // The device namespace was torn down under us (injected teardown
    // race): roll back and fail the start instead of running with dead
    // pseudo devices.
    devns_ = kernel::kHostDevNs;
    rootfs_.reset();
    cgroup.uncharge_memory(base_memory_);
    base_memory_ = 0;
    return std::nullopt;
  }

  state_ = ContainerState::kRunning;
  return kNamespaceKinds * kNamespaceCost + kVethCost + kUnionMountCost +
         kCgroupCost;
}

NamespaceSet& Container::namespaces() {
  if (!namespaces_named_ && state_ != ContainerState::kCreated) {
    namespaces_.net.veth_host = "veth-" + name_;
    namespaces_.net.address = "10.0." + std::to_string(id_ % 250) + ".2";
    namespaces_.uts.hostname = name_;
    namespaces_named_ = true;
  }
  return namespaces_;
}

sim::SimDuration Container::stop() {
  if (state_ != ContainerState::kRunning) return 0;
  if (namespaces_.pid.count() > 0) namespaces_.pid.kill(1);
  kernel_.device_namespaces().destroy(devns_);
  devns_ = kernel::kHostDevNs;
  if (cgroup_ != nullptr) {
    cgroup_->uncharge_memory(base_memory_);
    base_memory_ = 0;
  }
  state_ = ContainerState::kStopped;
  return kStopCost;
}

void Container::destroy() {
  assert(state_ != ContainerState::kRunning && "stop before destroy");
  rootfs_.reset();
  state_ = ContainerState::kDestroyed;
}

std::uint64_t Container::private_disk_bytes() const {
  return rootfs_ ? rootfs_->private_bytes() : 0;
}

bool Container::write_file(std::string_view path, std::uint64_t size,
                           sim::SimTime now) {
  if (!rootfs_) return false;
  if (config_->disk_quota > 0) {
    std::uint64_t existing = 0;
    if (const fs::UnionHit hit = rootfs_->lookup(path);
        hit.node != nullptr && hit.layer_index == 0) {
      existing = hit.node->size;  // replacing a private file frees it
    }
    if (rootfs_->private_bytes() - existing + size > config_->disk_quota) {
      return false;
    }
  }
  rootfs_->write(path, size, now);
  return true;
}

}  // namespace rattrap::container
