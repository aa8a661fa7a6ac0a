// Dispatcher: routes offloading requests to runtime environments.
//
// "Dispatcher handles the new arrived offloading requests and allocates
// execution environments for them" (§IV-A), and with the code cache it
// "tends to allocate offloading tasks to the Cloud Android Container
// where requests from the same application have been executed before"
// (§IV-D) — saving the code-loading time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/env_table.hpp"
#include "core/qos/qos.hpp"
#include "core/warehouse.hpp"
#include "obs/metrics.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {

class Dispatcher {
 public:
  /// `affinity`: route by application (AID → CID) instead of by device.
  Dispatcher(EnvTable& envs, AppWarehouse& warehouse, bool affinity)
      : envs_(envs), warehouse_(warehouse), affinity_(affinity) {}

  /// The environment-binding key for a request (per-device on every
  /// platform; affinity rerouting happens in assign()).
  [[nodiscard]] static std::string binding_key(
      const workloads::OffloadRequest& request);

  /// The existing environment this request should run in, or nullptr when
  /// a new one must be provisioned.  `code_ref` is the warehouse reference
  /// of the request's app (code_reference(app id)).  With affinity
  /// enabled, an environment that already executed this app's code wins
  /// — but only while its
  /// compute backlog stays below `backlog_threshold`; the Monitor &
  /// Scheduler otherwise spreads load across per-device environments
  /// (process-level scheduling, §IV-A).
  [[nodiscard]] EnvRecord* assign(const workloads::OffloadRequest& request,
                                  std::string_view code_ref,
                                  sim::SimTime now,
                                  sim::SimDuration backlog_threshold =
                                      sim::from_millis(600),
                                  qos::PriorityClass klass =
                                      qos::PriorityClass::kStandard);

  [[nodiscard]] bool affinity() const { return affinity_; }

  /// Attaches a metrics registry: assigns count into dispatcher.assign.*
  /// and, with affinity enabled, reroute hits/misses maintain
  /// dispatcher.affinity.hit_rate. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  EnvTable& envs_;
  AppWarehouse& warehouse_;
  bool affinity_;
  obs::Counter* assign_total_ = nullptr;
  obs::Counter* assign_new_env_ = nullptr;
  std::array<obs::Counter*, qos::kClassCount> assign_by_class_{};
  obs::Counter* affinity_hits_ = nullptr;
  obs::Counter* affinity_misses_ = nullptr;
  obs::Gauge* affinity_hit_rate_ = nullptr;
};

}  // namespace rattrap::core
