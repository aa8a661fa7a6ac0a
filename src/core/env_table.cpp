#include "core/env_table.hpp"

#include <algorithm>

namespace rattrap::core {

const char* to_string(EnvState state) {
  switch (state) {
    case EnvState::kCold:
      return "cold";
    case EnvState::kBooting:
      return "booting";
    case EnvState::kWarmIdle:
      return "warm_idle";
    case EnvState::kLeased:
      return "leased";
    case EnvState::kDraining:
      return "draining";
    case EnvState::kReclaimed:
      return "reclaimed";
  }
  return "?";
}

namespace {
/// The legal edges of the lifecycle (see the diagram in the header).
bool legal(EnvState from, EnvState to) {
  switch (from) {
    case EnvState::kCold:
      return to == EnvState::kBooting;
    case EnvState::kBooting:
      return to == EnvState::kWarmIdle || to == EnvState::kLeased ||
             to == EnvState::kDraining || to == EnvState::kReclaimed;
    case EnvState::kWarmIdle:
      return to == EnvState::kLeased || to == EnvState::kDraining ||
             to == EnvState::kReclaimed;
    case EnvState::kLeased:
      return to == EnvState::kWarmIdle || to == EnvState::kDraining ||
             to == EnvState::kReclaimed;
    case EnvState::kDraining:
      return to == EnvState::kReclaimed;
    case EnvState::kReclaimed:
      return false;
  }
  return false;
}

std::size_t slot(EnvState state) { return static_cast<std::size_t>(state); }
}  // namespace

void EnvTable::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  transition_metrics_.fill(nullptr);
  state_metrics_.fill(nullptr);
  if (metrics == nullptr) {
    added_ = retired_ = nullptr;
    active_ = nullptr;
    return;
  }
  added_ = &metrics->counter("envdb.added");
  retired_ = &metrics->counter("envdb.retired");
  active_ = &metrics->gauge("envdb.active");
}

void EnvTable::index_key(EnvRecord& record) {
  EnvId* head = by_key_.find(record.key_.bits());
  if (head == nullptr) {
    record.next_with_key_ = 0;
    by_key_.insert_or_assign(record.key_.bits(), record.id);
    return;
  }
  // Keep the chain ascending: walk to the last id below this one.
  if (record.id < *head) {
    record.next_with_key_ = *head;
    *head = record.id;
    return;
  }
  EnvRecord* prev = find(*head);
  while (prev->next_with_key_ != 0 && prev->next_with_key_ < record.id) {
    prev = find(prev->next_with_key_);
  }
  record.next_with_key_ = prev->next_with_key_;
  prev->next_with_key_ = record.id;
}

void EnvTable::unindex_key(EnvRecord& record) {
  EnvId* head = by_key_.find(record.key_.bits());
  if (head == nullptr) return;
  if (*head == record.id) {
    if (record.next_with_key_ == 0) {
      by_key_.erase(record.key_.bits());
    } else {
      *head = record.next_with_key_;
    }
    record.next_with_key_ = 0;
    return;
  }
  for (EnvRecord* prev = find(*head); prev->next_with_key_ != 0;
       prev = find(prev->next_with_key_)) {
    if (prev->next_with_key_ == record.id) {
      prev->next_with_key_ = record.next_with_key_;
      record.next_with_key_ = 0;
      return;
    }
  }
}

EnvRecord& EnvTable::add(EnvBacking backing, EnvKey key, sim::SimTime now) {
  const auto id = static_cast<EnvId>(++issued_);
  EnvRecord& record = records_.try_emplace(records_.end(), id)->second;
  by_id_.insert_or_assign(id, &record);
  record.id = id;
  record.backing = backing;
  record.provisioned_at = now;
  record.entered_at_ = now;
  record.key_ = key;
  index_key(record);
  ++counts_[slot(EnvState::kCold)];
  touch(record.id);
  if (added_ != nullptr) {
    added_->inc();
    active_->set(static_cast<double>(live_count()));
  }
  return record;
}

EnvTable::Records::node_type EnvTable::erase(EnvId id) {
  touch(id);
  by_id_.erase(id);
  return records_.extract(id);
}

void EnvTable::transition(EnvId id, EnvState to, sim::SimTime now) {
  touch(id);
  EnvRecord* record = find(id);
  if (record == nullptr) {
    if (first_error_.empty()) {
      first_error_ = "transition on untracked cid " + std::to_string(id) +
                     " to " + to_string(to);
    }
    return;
  }
  const EnvState from = record->state_;
  if (!legal(from, to)) {
    if (first_error_.empty()) {
      first_error_ = "illegal transition on cid " + std::to_string(id) +
                     ": " + to_string(from) + " -> " + to_string(to);
    }
    return;
  }
  if (from == EnvState::kWarmIdle) {
    idle_byte_seconds_ += static_cast<double>(record->memory_bytes) *
                          sim::to_seconds(now - record->entered_at_);
  }
  --counts_[slot(from)];
  ++counts_[slot(to)];
  ++transitions_[slot(to)];
  record->state_ = to;
  record->entered_at_ = now;
  if (to == EnvState::kDraining || to == EnvState::kReclaimed) {
    leave_pool(id);
    // Draining takes no new leases, so its key no longer finds it.
    if (from != EnvState::kDraining) unindex_key(*record);
  }
  if (to == EnvState::kReclaimed) {
    memory_byte_seconds_ += static_cast<double>(record->memory_bytes) *
                            sim::to_seconds(now - record->provisioned_at);
  }
  emit(*record, from, to, now);
}

void EnvTable::emit(EnvRecord& record, EnvState from, EnvState to,
                    sim::SimTime now) {
  if (metrics_ != nullptr) {
    obs::Counter*& into = transition_metrics_[slot(to)];
    if (into == nullptr) {
      into = &metrics_->counter(std::string("elastic.transitions.") +
                                to_string(to));
    }
    into->inc();
    for (const EnvState state : {to, from}) {
      if (state == EnvState::kCold) continue;
      obs::Gauge*& gauge = state_metrics_[slot(state)];
      if (gauge == nullptr) {
        gauge = &metrics_->gauge(std::string("elastic.state.") +
                                 to_string(state));
      }
      gauge->set(static_cast<double>(count(state)));
    }
    if (to == EnvState::kReclaimed) {
      retired_->inc();
      active_->set(static_cast<double>(live_count()));
    }
  }
  if (trace_ == nullptr || !trace_->enabled()) return;
  // No-op if the drain-time sweep already closed the span.
  trace_->end(record.span_, now);
  record.span_ = obs::kNoSpan;
  const std::uint64_t track = kLifecycleTrackBase + record.id;
  if (to == EnvState::kReclaimed) {
    trace_->instant(track, "reclaimed", "lifecycle", now);
    return;
  }
  record.span_ = trace_->begin(track, to_string(to), "lifecycle", now);
}

EnvRecord* EnvTable::find_by_key(EnvKey key) {
  const EnvId* head = by_key_.find(key.bits());
  return head == nullptr ? nullptr : find(*head);
}

bool EnvTable::rebind(EnvId id, EnvKey key) {
  EnvRecord* record = find(id);
  if (record == nullptr) return false;
  if (record->key_ == key) return true;
  const bool indexed = record->leasable();
  if (indexed) unindex_key(*record);
  record->key_ = key;
  if (indexed) index_key(*record);
  return true;
}

void EnvTable::add_to_pool(EnvId id) {
  const EnvRecord* record = find(id);
  if (record == nullptr || !record->leasable()) return;
  if (pool_.insert(id).second) pool_bytes_ += record->memory_bytes;
  touch(id);
}

void EnvTable::leave_pool(EnvId id) {
  if (pool_.erase(id) == 0) return;
  pool_bytes_ -= find(id)->memory_bytes;
  touch(id);
}

std::optional<EnvId> EnvTable::claim_pool() {
  if (pool_.empty()) return std::nullopt;
  const EnvId id = *pool_.begin();
  leave_pool(id);
  return id;
}

double EnvTable::idle_byte_seconds(sim::SimTime now) const {
  double sum = idle_byte_seconds_;
  for (const EnvRecord& record : records()) {
    if (record.state_ != EnvState::kWarmIdle) continue;
    sum += static_cast<double>(record.memory_bytes) *
           sim::to_seconds(now - record.entered_at_);
  }
  return sum;
}

double EnvTable::memory_byte_seconds(sim::SimTime now) const {
  double sum = memory_byte_seconds_;
  for (const EnvRecord& record : records()) {
    if (!record.live()) continue;
    sum += static_cast<double>(record.memory_bytes) *
           sim::to_seconds(now - record.provisioned_at);
  }
  return sum;
}

std::optional<std::string> EnvTable::check() const {
  if (!first_error_.empty()) return "lifecycle error: " + first_error_;
  std::array<std::size_t, kEnvStateCount> recount{};
  recount[slot(EnvState::kReclaimed)] = issued_ - records_.size();
  for (const EnvRecord& record : records()) ++recount[slot(record.state_)];
  for (std::size_t s = 0; s < kEnvStateCount; ++s) {
    if (recount[s] == counts_[s]) continue;
    return std::string("count of ") + to_string(static_cast<EnvState>(s)) +
           " is " + std::to_string(counts_[s]) + ", records hold " +
           std::to_string(recount[s]);
  }
  std::uint64_t pool_bytes = 0;
  for (const EnvId id : pool_) pool_bytes += find(id)->memory_bytes;
  if (pool_bytes != pool_bytes_) {
    return "pool ledger says " + std::to_string(pool_bytes_) +
           " bytes, pooled records hold " + std::to_string(pool_bytes);
  }
  return std::nullopt;
}

}  // namespace rattrap::core
