#include "core/monitor.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace rattrap::core {

void MonitorScheduler::record_cpu(sim::SimTime t0, sim::SimTime t1,
                                  double cores) {
  assert(t0 <= t1);
  if (t0 == t1 || cores <= 0.0) return;
  cpu_.add_interval(t0, t1, static_cast<double>(t1 - t0) * cores);
  total_busy_ +=
      static_cast<sim::SimDuration>(static_cast<double>(t1 - t0) * cores);
}

double MonitorScheduler::busy_core_seconds(std::size_t second) const {
  return cpu_.bucket(second) / 1e6;  // stored in core-µs
}

double MonitorScheduler::cpu_percent(std::size_t second,
                                     double active_envs) const {
  if (active_envs <= 0.0) return 0.0;
  const double busy = busy_core_seconds(second);
  return std::min(100.0, 100.0 * busy / active_envs);
}

void MonitorScheduler::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_jobs_ = metric_jobs_peak_ = nullptr;
    metric_class_jobs_.fill(nullptr);
    metric_crashes_reported_ = metric_crashes_detected_ = nullptr;
    metric_active_envs_ = nullptr;
    return;
  }
  metric_jobs_ = &metrics->gauge("monitor.running_jobs");
  metric_jobs_peak_ = &metrics->gauge("monitor.peak_jobs");
  metric_active_envs_ = &metrics->gauge("monitor.active_envs");
  for (const qos::PriorityClass klass : qos::kAllClasses) {
    metric_class_jobs_[qos::class_index(klass)] = &metrics->gauge(
        std::string("qos.running.") + qos::to_string(klass));
  }
  metric_crashes_reported_ = &metrics->counter("monitor.crashes.reported");
  metric_crashes_detected_ = &metrics->counter("monitor.crashes.detected");
}

void MonitorScheduler::env_up(std::uint32_t env_id) {
  live_envs_.insert_or_assign(env_id, true);
  if (metric_active_envs_ != nullptr) {
    metric_active_envs_->set(static_cast<double>(live_envs_.size()));
  }
}

void MonitorScheduler::env_down(std::uint32_t env_id) {
  live_envs_.erase(env_id);
  if (metric_active_envs_ != nullptr) {
    metric_active_envs_->set(static_cast<double>(live_envs_.size()));
  }
}

void MonitorScheduler::notify_crash(std::uint32_t env_id) {
  if (!pending_crashes_.insert(env_id).second) return;  // already reported
  ++reported_;
  if (metric_crashes_reported_ != nullptr) metric_crashes_reported_->inc();
  // The health sweep's interval: how long a crash stays undetected.
  constexpr sim::SimDuration kDetectionLatency = 100 * sim::kMillisecond;
  sim_.schedule_in(kDetectionLatency, [this, env_id]() {
    if (pending_crashes_.erase(env_id) == 0) return;
    ++detected_;
    if (metric_crashes_detected_ != nullptr) metric_crashes_detected_->inc();
    if (crash_handler_) crash_handler_(env_id);
  });
}

}  // namespace rattrap::core
