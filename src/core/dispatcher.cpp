#include "core/dispatcher.hpp"

namespace rattrap::core {

void Dispatcher::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    assign_total_ = assign_new_env_ = nullptr;
    assign_by_class_.fill(nullptr);
    affinity_hits_ = affinity_misses_ = nullptr;
    affinity_hit_rate_ = nullptr;
    return;
  }
  assign_total_ = &metrics->counter("dispatcher.assign.total");
  assign_new_env_ = &metrics->counter("dispatcher.assign.new_env");
  for (const qos::PriorityClass klass : qos::kAllClasses) {
    assign_by_class_[qos::class_index(klass)] = &metrics->counter(
        std::string("dispatcher.assign.") + qos::to_string(klass));
  }
  affinity_hits_ = &metrics->counter("dispatcher.affinity.hits");
  affinity_misses_ = &metrics->counter("dispatcher.affinity.misses");
  affinity_hit_rate_ = &metrics->gauge("dispatcher.affinity.hit_rate");
}

EnvRecord* Dispatcher::assign(const workloads::OffloadRequest& request,
                              std::string_view code_ref, sim::SimTime now,
                              sim::SimDuration backlog_threshold,
                              qos::PriorityClass klass) {
  const auto finish = [this, klass](EnvRecord* record, bool affinity_hit) {
    if (assign_total_ != nullptr) {
      assign_total_->inc();
      if (record == nullptr) assign_new_env_->inc();
      if (assign_by_class_[qos::class_index(klass)] != nullptr) {
        assign_by_class_[qos::class_index(klass)]->inc();
      }
      if (affinity_) {
        (affinity_hit ? affinity_hits_ : affinity_misses_)->inc();
        const double total = static_cast<double>(affinity_hits_->value() +
                                                 affinity_misses_->value());
        affinity_hit_rate_->set(
            static_cast<double>(affinity_hits_->value()) / total);
      }
    }
    return record;
  };
  EnvRecord* device_env = table_.find_by_key(binding_key(request));
  if (!affinity_) return finish(device_env, false);
  // A device's first request always provisions its own environment (all
  // three platforms pay one boot per device); affinity then *reroutes*
  // subsequent requests to a container that already executed this app —
  // saving the code-loading time — unless that container is backlogged.
  if (device_env == nullptr) return finish(nullptr, false);
  if (const auto preferred = warehouse_.preferred_env(code_ref)) {
    EnvRecord* record = table_.find(*preferred);
    // Only reroute onto a container that is actually serving: a reclaimed
    // record is a dead environment (the warehouse learns of crashes
    // asynchronously), a booting one has no Dispatcher registration yet,
    // and a draining one takes no new leases.  Routing to a dead or
    // booting one strands the session.
    if (record != nullptr &&
        (record->state() == EnvState::kWarmIdle ||
         record->state() == EnvState::kLeased) &&
        record->busy_until <= now + backlog_threshold) {
      return finish(record, true);
    }
  }
  return finish(device_env, false);
}

}  // namespace rattrap::core
