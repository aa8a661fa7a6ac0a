// QosScheduler: the admission front door's queue, unified.
//
// One scheduler replaces the single FIFO accept queue of PR 3.  It keeps
// three class lanes (interactive / standard / batch), each a bounded
// weighted-DRR queue over tenants (qos/drr.hpp).  Dequeue order is strict
// priority across lanes with a bounded anti-starvation promotion: after
// `promote_every` consecutive higher-class pops while lower classes wait,
// the highest waiting lower class gets a burst of `starvation_burst`
// pops.  The qos-priority-burst invariant asserts the observed run of
// lower-class pops (while a higher lane is non-empty) never exceeds that
// burst.
//
// With QosConfig::enabled == false the scheduler degrades to exactly the
// legacy behaviour: every item lands in the standard lane under a single
// pseudo-tenant, which makes DRR a plain FIFO bounded by the legacy
// AdmissionConfig::queue_capacity.  The platform therefore has one queue
// code path regardless of policy (docs/QOS.md).
//
// The scheduler stores opaque item ids (the platform maps them back to
// sessions); it never touches session state, which keeps it unit-testable
// in isolation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "core/offload.hpp"
#include "core/qos/drr.hpp"
#include "core/qos/qos.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace rattrap::core::qos {

class QosScheduler {
 public:
  /// `fifo_capacity` bounds every lane whose ClassConfig::queue_capacity
  /// is 0 (and the single legacy lane when QoS is disabled).
  QosScheduler(const QosConfig& config, std::uint32_t fifo_capacity);

  struct Popped {
    std::uint64_t id = 0;
    PriorityClass klass = PriorityClass::kStandard;
    std::string tenant;
    sim::SimDuration waited = 0;
    std::uint64_t deficit_after = 0;  ///< tenant deficit post-pop
  };

  /// Queues one item; the returned value is the class-lane depth after
  /// the push.  kQueueFull when the lane is at capacity.
  Result<std::uint32_t> push(PriorityClass klass, const std::string& tenant,
                             std::uint64_t id, sim::SimTime now);

  /// Dequeues under priority + DRR + anti-starvation; nullopt when empty.
  std::optional<Popped> pop(sim::SimTime now);

  /// Removes a queued item (its session finished while waiting).
  bool remove(PriorityClass klass, const std::string& tenant,
              std::uint64_t id);

  /// Drops everything queued (end-of-run drain).
  void clear();

  /// Tenant weight for DRR; applies from the next deficit top-up.
  void set_tenant_weight(const std::string& tenant, std::uint32_t weight);

  [[nodiscard]] std::size_t depth(PriorityClass klass) const;
  [[nodiscard]] std::size_t total_depth() const;
  /// Items `tenant` has queued across every lane — the admission
  /// controller's per-tenant queue quota reads this (docs/RAC.md).  With
  /// QoS disabled everything shares the FIFO pseudo-tenant, so the value
  /// is the whole queue depth regardless of `tenant`.
  [[nodiscard]] std::size_t tenant_depth(const std::string& tenant) const;
  [[nodiscard]] std::uint32_t capacity(PriorityClass klass) const;
  [[nodiscard]] double shed_threshold(PriorityClass klass,
                                      double fallback) const;
  [[nodiscard]] const QosConfig& config() const { return config_; }

  /// Longest run of consecutive lower-class pops while a higher lane was
  /// non-empty; the qos-priority-burst invariant bounds it by
  /// starvation_burst.
  [[nodiscard]] std::uint32_t max_lower_run() const { return max_lower_run_; }
  [[nodiscard]] std::uint64_t promotions() const { return promotions_; }

  /// DRR conservation across all lanes (qos-drr-conservation invariant).
  [[nodiscard]] std::optional<std::string> check_conservation() const;

  /// Lane DRR introspection (tests).
  [[nodiscard]] const DrrScheduler& lane(PriorityClass klass) const {
    return lanes_[class_index(klass)].drr;
  }

  /// Attaches qos.* instruments; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Lane {
    DrrScheduler drr;
    std::uint32_t capacity = 0;
    obs::Counter* enqueued = nullptr;
    obs::Counter* dequeued = nullptr;
    obs::Counter* shed_queue_full = nullptr;
    obs::Gauge* depth_gauge = nullptr;
    obs::Gauge* depth_peak = nullptr;
    obs::Histogram* wait_ms = nullptr;
  };

  /// Maps (klass, tenant) onto the lane key actually used: the standard
  /// lane under one pseudo-tenant when QoS is disabled.
  [[nodiscard]] std::pair<PriorityClass, std::string> lane_key(
      PriorityClass klass, const std::string& tenant) const;
  void update_depth_gauge(Lane& lane);

  QosConfig config_;
  std::array<Lane, kClassCount> lanes_;
  std::uint32_t higher_streak_ = 0;  ///< higher pops since last promotion
  std::uint32_t promote_credit_ = 0;
  std::uint32_t lower_run_ = 0;
  std::uint32_t max_lower_run_ = 0;
  std::uint64_t promotions_ = 0;
  obs::Counter* metric_promotions_ = nullptr;
  obs::Gauge* metric_lower_run_peak_ = nullptr;
};

}  // namespace rattrap::core::qos
