// Monitor & Scheduler: server-load accounting at process level.
//
// The paper's Monitor & Scheduler "conducts resource scheduling at
// process-level, rather than at VM-level" (§IV-A).  This component tracks
// CPU busy time per second (the Fig. 2 CPU timeline), allocates cores to
// compute jobs, and exposes utilization for scheduling decisions.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <set>

#include "core/qos/qos.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace rattrap::core {

class MonitorScheduler {
 public:
  MonitorScheduler(sim::Simulator& simulator, std::uint32_t cores)
      : sim_(simulator), cores_(cores) {}

  /// Records `cores` CPU(s) busy over [t0, t1) (core-µs into the series).
  void record_cpu(sim::SimTime t0, sim::SimTime t1, double cores = 1.0);

  /// CPU utilization (0–100 %) of bucket `second`, normalized to the
  /// number of cores *in use by runtime environments* (`active_envs`);
  /// the paper's Fig. 2 plots the guest-visible utilization, which pins
  /// at 100 % when every environment is computing.
  [[nodiscard]] double cpu_percent(std::size_t second,
                                   double active_envs) const;

  /// Raw busy core-seconds in bucket `second`.
  [[nodiscard]] double busy_core_seconds(std::size_t second) const;

  [[nodiscard]] const sim::TimeSeries& cpu_series() const { return cpu_; }
  [[nodiscard]] std::uint32_t cores() const { return cores_; }

  /// Total busy core-time recorded.
  [[nodiscard]] sim::SimDuration total_busy() const { return total_busy_; }

  /// Currently running compute jobs (informational, for scheduling).
  /// Jobs are accounted per QoS class so the scheduler can see which
  /// traffic tier is occupying the compute plane (docs/QOS.md).
  void job_started(
      qos::PriorityClass klass = qos::PriorityClass::kStandard) {
    ++running_jobs_;
    ++running_by_class_[qos::class_index(klass)];
    publish_jobs(klass);
  }
  void job_finished(
      qos::PriorityClass klass = qos::PriorityClass::kStandard) {
    if (running_jobs_ > 0) --running_jobs_;
    auto& by_class = running_by_class_[qos::class_index(klass)];
    if (by_class > 0) --by_class;
    publish_jobs(klass);
  }
  [[nodiscard]] std::uint32_t running_jobs() const { return running_jobs_; }
  [[nodiscard]] std::uint32_t running_jobs(qos::PriorityClass klass) const {
    return running_by_class_[qos::class_index(klass)];
  }

  /// Instantaneous compute-plane utilization: running jobs per core.
  /// > 1 means the processor-sharing model is stretching every job —
  /// the saturation signal admission control sheds on.
  [[nodiscard]] double load_fraction() const {
    return cores_ > 0 ? static_cast<double>(running_jobs_) /
                            static_cast<double>(cores_)
                      : 0.0;
  }

  /// Attaches a metrics registry: job slots maintain monitor.running_jobs
  /// / monitor.peak_jobs and crash detection counts into
  /// monitor.crashes.* . nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

  // -- Live-environment count (docs/ELASTIC.md) -------------------------
  //
  // Feeds the monitor.active_envs gauge: up at every boot end, down on
  // every teardown (idle reclaim, drain, crash) of a booted environment.

  void env_up() { publish_active_envs(++active_envs_); }
  void env_down() { publish_active_envs(--active_envs_); }
  [[nodiscard]] std::size_t active_envs() const { return active_envs_; }

  // -- Crashed-environment detection -----------------------------------
  //
  // The Monitor's health sweep notices a CAC whose processes vanished and
  // tells the platform, which re-dispatches the sessions that were bound
  // to it. Detection is not instantaneous: the sweep runs on an interval,
  // so a crashed environment stays undetected for 100 ms of virtual time.

  /// Platform recovery hook, invoked once per detected crash.
  void set_crash_handler(std::function<void(std::uint32_t env_id)> handler) {
    crash_handler_ = std::move(handler);
  }

  /// Reports that environment `env_id` just died; the next health sweep
  /// (100 ms later) detects it and fires the crash handler.
  void notify_crash(std::uint32_t env_id);

  /// A crash of `env_id` has been reported but not yet detected.
  [[nodiscard]] bool crash_pending(std::uint32_t env_id) const {
    return pending_crashes_.contains(env_id);
  }
  [[nodiscard]] std::uint64_t crashes_reported() const { return reported_; }
  [[nodiscard]] std::uint64_t crashes_detected() const { return detected_; }

 private:
  /// Mirrors the job counts (and their peak) and the live environment
  /// count into their gauges, when metrics are attached.
  void publish_jobs(qos::PriorityClass klass);
  void publish_active_envs(std::size_t count);

  sim::Simulator& sim_;
  std::uint32_t cores_;
  sim::TimeSeries cpu_{sim::kSecond};
  sim::SimDuration total_busy_ = 0;
  std::uint32_t running_jobs_ = 0;
  std::array<std::uint32_t, qos::kClassCount> running_by_class_{};
  std::function<void(std::uint32_t)> crash_handler_;
  std::set<std::uint32_t> pending_crashes_;
  std::size_t active_envs_ = 0;
  std::uint64_t reported_ = 0;
  std::uint64_t detected_ = 0;
  obs::Gauge* metric_jobs_ = nullptr;
  obs::Gauge* metric_active_envs_ = nullptr;
  obs::Gauge* metric_jobs_peak_ = nullptr;
  std::array<obs::Gauge*, qos::kClassCount> metric_class_jobs_{};
  obs::Counter* metric_crashes_reported_ = nullptr;
  obs::Counter* metric_crashes_detected_ = nullptr;
};

}  // namespace rattrap::core
