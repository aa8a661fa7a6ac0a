// Character-device abstraction and registry (the kernel's /dev view).
//
// Android's pseudo drivers (binder, alarm, logger) expose device nodes;
// containers see them through device namespaces (devns.hpp).  A Device
// here is namespace-aware: every operation carries the device-namespace id
// of the calling container so one driver instance can serve many
// containers with isolated state — exactly the multiplexing the paper
// borrows from Cells.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace rattrap::kernel {

/// Identifier of a device namespace (one per container; 0 = host/init ns).
using DevNsId = std::uint32_t;
inline constexpr DevNsId kHostDevNs = 0;

class Device {
 public:
  virtual ~Device() = default;

  /// Device node path, e.g. "/dev/binder".
  [[nodiscard]] virtual std::string dev_path() const = 0;

  /// A container's namespace came into existence (driver may lazily
  /// allocate per-namespace state instead; this is a hint).  `base` is
  /// the namespace whose state `ns` starts as a copy of (kHostDevNs for
  /// an empty namespace); a driver that keeps booted per-namespace state
  /// lets `ns` read through to it until `ns` writes.
  virtual void on_namespace_created(DevNsId /*ns*/, DevNsId /*base*/) {}

  /// A namespace was destroyed: all its per-namespace state must go.
  virtual void on_namespace_destroyed(DevNsId /*ns*/) {}
};

/// Registry of live device nodes, keyed by path.
class DeviceRegistry {
 public:
  /// Registers a device; returns false when the path is already taken.
  bool add(Device* device);

  /// Unregisters by path; returns false when absent.
  bool remove(std::string_view dev_path);

  /// Looks up a device; nullptr when absent.
  [[nodiscard]] Device* find(std::string_view dev_path) const;

  [[nodiscard]] std::size_t count() const { return devices_.size(); }

  /// Broadcasts namespace lifecycle to every registered device.
  void namespace_created(DevNsId ns, DevNsId base);
  void namespace_destroyed(DevNsId ns);

 private:
  std::map<std::string, Device*, std::less<>> devices_;
};

}  // namespace rattrap::kernel
