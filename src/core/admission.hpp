// Admission control for the Dispatcher front door.
//
// The paper's density argument only holds while the server is protected:
// CloneCloud-style offloading collapses precisely when the cloud side
// saturates, so a production Dispatcher must bound what it accepts
// instead of letting an unbounded session backlog melt the host.  The
// mechanisms, all deterministic:
//
//   * class-aware bounded accept queues — sessions the server cannot
//     start yet wait in a QosScheduler (priority classes + weighted DRR
//     across tenants, docs/QOS.md); when a class lane is full, new
//     arrivals of that class are shed.  With QoS disabled this is the
//     single FIFO of the original front door.
//   * per-tenant token buckets — each tenant sharing the platform is
//     limited to a sustained request rate plus a burst allowance, so one
//     chatty app cannot starve the rest;
//   * utilization-based load shedding — when the Monitor reports the
//     compute plane saturated beyond a (per-class) threshold, arrivals
//     are rejected outright with a typed reply the device can back off
//     on.
//
// The controller also derives a backpressure signal in [0, 1] from queue
// occupancy and Monitor utilization; closed-loop load generators stretch
// their think times by it (docs/LOADGEN.md).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/monitor.hpp"
#include "core/offload.hpp"
#include "core/qos/scheduler.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace rattrap::core {

struct AdmissionConfig {
  /// Master switch; disabled keeps the pre-admission behaviour (every
  /// connected session dispatches immediately).
  bool enabled = false;

  /// Sessions dispatched concurrently (in service). 0 derives the limit
  /// from the calibration: 4 × server cores.
  std::uint32_t max_in_service = 0;

  /// Bounded accept-queue capacity; arrivals beyond it are shed. With
  /// QoS enabled this is the default per-class lane capacity (overridden
  /// per class by qos.<class>.queue_capacity).
  std::uint32_t queue_capacity = 64;

  /// Per-tenant sustained request rate (req/s); 0 disables rate
  /// limiting.
  double tenant_rate_per_s = 0.0;

  /// Token bucket capacity (burst allowance); 0 defaults to
  /// max(1, tenant_rate_per_s).
  double tenant_burst = 0.0;

  /// Shed arrivals while Monitor utilization (running jobs / cores)
  /// meets or exceeds this fraction; 0 disables shedding.  Values > 1
  /// tolerate oversubscription before shedding.  Per-class overrides live
  /// in qos.<class>.shed_utilization.
  double shed_utilization = 0.0;

  /// Max entries one tenant may hold across the class queues at once; 0
  /// disables the quota.  A class-flooding tenant fills its own
  /// allowance and is shed with kQuotaExceeded while other tenants'
  /// lanes stay open (docs/RAC.md).
  std::uint32_t tenant_queue_quota = 0;

  /// Class scheduling policy (docs/QOS.md).  Disabled degrades the
  /// accept queue to the legacy single FIFO.
  qos::QosConfig qos;
};

/// Deterministic token bucket over simulated time.
class TokenBucket {
 public:
  TokenBucket(double rate_per_s, double burst)
      : rate_per_s_(rate_per_s), burst_(burst), tokens_(burst) {}

  /// Refills by elapsed virtual time and takes one token if available.
  bool try_take(sim::SimTime now);

  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  double rate_per_s_;
  double burst_;
  double tokens_;
  sim::SimTime last_refill_ = 0;
};

class AdmissionController {
 public:
  /// How an accepted arrival proceeds.
  enum class Admitted : std::uint8_t {
    kDispatch = 0,  ///< holds an in-service slot; dispatch immediately
    kQueued,        ///< parked in the class queue; popped when a slot frees
  };

  /// One arrival at the front door.
  struct Offer {
    std::string tenant;
    qos::PriorityClass klass = qos::PriorityClass::kStandard;
    /// Caller-owned id for the queued item (the platform uses the
    /// session's record slot); echoed back by pop_queued().
    std::uint64_t id = 0;
  };

  AdmissionController(const AdmissionConfig& config,
                      const MonitorScheduler& monitor,
                      std::uint32_t server_cores);

  /// Decides one arrival at virtual time `now`.  The typed error carries
  /// the reject reason (kRateLimited / kOverloaded / kQueueFull); kAdmit
  /// results update in-service or queue accounting.  The caller owns the
  /// session objects and must pair every kDispatch with release() and
  /// every kQueued with either pop_queued() or abandon_queued().
  Result<Admitted> offer(const Offer& offer, sim::SimTime now);

  /// An admitted (in-service) session finished; frees its slot.
  void release();

  /// True when a dispatch slot is free and some class queue is
  /// non-empty — the caller should pop_queued() and dispatch the result.
  [[nodiscard]] bool can_start_queued() const {
    return scheduler_.total_depth() > 0 && in_service_ < max_in_service_;
  }

  /// Pops the next queued session under priority + DRR and moves it into
  /// service; nullopt when nothing is queued or no slot is free.
  std::optional<qos::QosScheduler::Popped> pop_queued(sim::SimTime now);

  /// A queued session evaporated without starting (finished while
  /// waiting, or the end-of-run drain); removes it from its class queue.
  void abandon_queued(qos::PriorityClass klass, const std::string& tenant,
                      std::uint64_t id);

  /// DRR weight for `tenant` within its class (docs/QOS.md).
  void set_tenant_weight(const std::string& tenant, std::uint32_t weight) {
    scheduler_.set_tenant_weight(tenant, weight);
  }

  /// Backpressure in [0, 1]: max of queue occupancy and how far Monitor
  /// utilization overshoots the shed threshold (or 1.0× cores when
  /// shedding is off).  0 when admission control is disabled.
  [[nodiscard]] double backpressure() const;

  [[nodiscard]] std::uint32_t in_service() const { return in_service_; }
  [[nodiscard]] std::uint32_t queue_depth() const {
    return static_cast<std::uint32_t>(scheduler_.total_depth());
  }
  [[nodiscard]] std::uint32_t queue_capacity() const {
    return queue_capacity_;
  }
  [[nodiscard]] std::uint32_t max_in_service() const {
    return max_in_service_;
  }
  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

  /// The class scheduler (queue introspection for invariants and tests).
  [[nodiscard]] qos::QosScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const qos::QosScheduler& scheduler() const {
    return scheduler_;
  }

  /// Attaches a metrics registry (admission.* and qos.* instruments,
  /// docs/LOADGEN.md, docs/QOS.md). nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  void update_gauges();

  AdmissionConfig config_;
  const MonitorScheduler& monitor_;
  std::uint32_t max_in_service_;
  std::uint32_t queue_capacity_;
  std::uint32_t in_service_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::map<std::string, TokenBucket> buckets_;  ///< by tenant
  qos::QosScheduler scheduler_;

  obs::Counter* metric_admitted_ = nullptr;
  obs::Counter* metric_enqueued_ = nullptr;
  obs::Counter* metric_rejected_queue_full_ = nullptr;
  obs::Counter* metric_rejected_rate_limited_ = nullptr;
  obs::Counter* metric_rejected_overloaded_ = nullptr;
  obs::Counter* metric_rejected_tenant_quota_ = nullptr;
  obs::Gauge* metric_queue_depth_ = nullptr;
  obs::Gauge* metric_queue_peak_ = nullptr;
  obs::Gauge* metric_backpressure_ = nullptr;
  obs::Histogram* metric_queue_wait_ms_ = nullptr;
  obs::Histogram* metric_queue_depth_samples_ = nullptr;
};

}  // namespace rattrap::core
