#include "core/server.hpp"

#include <cassert>

namespace rattrap::core {

CloudServer::CloudServer(const Calibration& calibration,
                         std::shared_ptr<const fs::Layer> shared_system_layer)
    : cal_(calibration),
      disk_(sim_, calibration.disk),
      kernel_(sim_),
      acd_(sim_),
      containers_(kernel_),
      hypervisor_(sim_, disk_, calibration.server_memory),
      monitor_(sim_, calibration.server_cores),
      shared_(std::move(shared_system_layer), calibration.tmpfs_capacity,
              calibration.tmpfs_mb_s),
      warehouse_() {}

void CloudServer::install_metrics(obs::MetricsRegistry* metrics) {
  monitor_.set_metrics(metrics);
  shared_.set_metrics(metrics);
  warehouse_.set_metrics(metrics);
  access_.set_metrics(metrics);
}

void CloudServer::install_fault_injector(sim::FaultInjector* faults) {
  disk_.set_fault_injector(faults);
  shared_.offload_io().set_fault_injector(faults);
  acd_.binder().set_fault_injector(faults);
  kernel_.device_namespaces().set_fault_injector(faults);
  warehouse_.set_fault_injector(faults);
}

sim::SimDuration CloudServer::native_compute_time(
    workloads::Kind kind, std::uint64_t units) const {
  const double rate = cal_.server_rates[static_cast<std::size_t>(kind)];
  assert(rate > 0);
  return sim::from_seconds(static_cast<double>(units) / rate);
}

}  // namespace rattrap::core
