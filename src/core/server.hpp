// Cloud server: the physical machine hosting a platform instance.
//
// Models one of the paper's evaluation servers (2× six-core Xeon X5650,
// 16 GB DRAM, 300 GB HDD, Ubuntu host) and owns the substrate stack: the
// simulated clock, the host kernel (+ Android Container Driver), the HDD,
// the container runtime, the hypervisor, the monitor and the shared
// platform services.
#pragma once

#include <cstdint>
#include <memory>

#include "container/runtime.hpp"
#include "core/access_control.hpp"
#include "core/calibration.hpp"
#include "core/monitor.hpp"
#include "core/shared_layer.hpp"
#include "core/warehouse.hpp"
#include "fs/disk.hpp"
#include "kernel/android_container_driver.hpp"
#include "kernel/kernel.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "vm/hypervisor.hpp"

namespace rattrap::core {

class CloudServer {
 public:
  CloudServer(const Calibration& calibration,
              std::shared_ptr<const fs::Layer> shared_system_layer);

  [[nodiscard]] const Calibration& calibration() const { return cal_; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] fs::DiskModel& disk() { return disk_; }
  [[nodiscard]] kernel::HostKernel& kernel() { return kernel_; }
  [[nodiscard]] kernel::AndroidContainerDriver& driver() { return acd_; }
  [[nodiscard]] container::ContainerRuntime& containers() {
    return containers_;
  }
  [[nodiscard]] vm::Hypervisor& hypervisor() { return hypervisor_; }
  [[nodiscard]] MonitorScheduler& monitor() { return monitor_; }
  [[nodiscard]] SharedResourceLayer& shared_layer() { return shared_; }
  [[nodiscard]] AppWarehouse& warehouse() { return warehouse_; }
  [[nodiscard]] RequestAccessController& access() { return access_; }

  /// Simulated compute duration of `units` work of `kind` on one core at
  /// native speed (platform overheads are applied by the caller).
  [[nodiscard]] sim::SimDuration native_compute_time(
      workloads::Kind kind, std::uint64_t units) const;

  /// Threads one fault injector through every server-side fault point:
  /// the HDD, the shared offload tmpfs, the binder context, the device-
  /// namespace subsystem and the warehouse cache. Pass nullptr to detach.
  void install_fault_injector(sim::FaultInjector* faults);

  /// Threads one metrics registry through every instrumented server
  /// component (monitor, shared layer, warehouse, access controller). Pass
  /// nullptr to detach.
  void install_metrics(obs::MetricsRegistry* metrics);

 private:
  Calibration cal_;
  sim::Simulator sim_;
  fs::DiskModel disk_;
  kernel::HostKernel kernel_;
  kernel::AndroidContainerDriver acd_;
  container::ContainerRuntime containers_;
  vm::Hypervisor hypervisor_;
  MonitorScheduler monitor_;
  SharedResourceLayer shared_;
  AppWarehouse warehouse_;
  RequestAccessController access_;
};

}  // namespace rattrap::core
