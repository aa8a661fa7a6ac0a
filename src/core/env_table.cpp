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

void EnvTable::index_key(const std::string& key, EnvId id) {
  std::vector<EnvId>& ids = by_key_[key];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

void EnvTable::unindex_key(const std::string& key, EnvId id) {
  std::vector<EnvId>* ids = by_key_.find(key);
  if (ids == nullptr) return;
  const auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) ids->erase(it);
  if (ids->empty()) by_key_.erase(key);
}

EnvRecord& EnvTable::add(EnvBacking backing, std::string key,
                         sim::SimTime now) {
  EnvRecord& record = records_.emplace_back();
  record.id = static_cast<EnvId>(records_.size());
  record.backing = backing;
  record.provisioned_at = now;
  record.entered_at_ = now;
  record.key_ = std::move(key);
  index_key(record.key_, record.id);
  live_.insert(live_.end(), record.id);
  ++counts_[slot(EnvState::kCold)];
  touch(record.id);
  if (added_ != nullptr) {
    added_->inc();
    active_->set(static_cast<double>(live_count()));
  }
  return record;
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
  }
  if (to == EnvState::kReclaimed) {
    live_.erase(id);
    unindex_key(record->key_, id);
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

EnvRecord* EnvTable::find(EnvId id) {
  return id == 0 || id > records_.size() ? nullptr : &records_[id - 1];
}

const EnvRecord* EnvTable::find(EnvId id) const {
  return id == 0 || id > records_.size() ? nullptr : &records_[id - 1];
}

EnvRecord* EnvTable::find_by_key(std::string_view key) {
  const std::vector<EnvId>* ids = by_key_.find(key);
  return ids == nullptr ? nullptr : find(ids->front());
}

bool EnvTable::rebind(EnvId id, std::string key) {
  EnvRecord* record = find(id);
  if (record == nullptr) return false;
  if (record->key_ == key) return true;
  if (record->live()) unindex_key(record->key_, id);
  record->key_ = std::move(key);
  if (record->live()) index_key(record->key_, id);
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
  pool_bytes_ -= records_[id - 1].memory_bytes;
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
  for (const EnvId id : live_) {
    const EnvRecord& record = records_[id - 1];
    if (record.state_ != EnvState::kWarmIdle) continue;
    sum += static_cast<double>(record.memory_bytes) *
           sim::to_seconds(now - record.entered_at_);
  }
  return sum;
}

double EnvTable::memory_byte_seconds(sim::SimTime now) const {
  double sum = 0;
  for (const EnvRecord& record : records_) {
    if (record.memory_bytes == 0) continue;
    const sim::SimTime end =
        record.live() ? now : record.entered_at_;  // reclaim time
    sum += static_cast<double>(record.memory_bytes) *
           sim::to_seconds(end - record.provisioned_at);
  }
  return sum;
}

std::optional<std::string> EnvTable::check() const {
  if (!first_error_.empty()) return "lifecycle error: " + first_error_;
  std::array<std::size_t, kEnvStateCount> recount{};
  for (const EnvRecord& record : records_) ++recount[slot(record.state_)];
  for (std::size_t s = 0; s < kEnvStateCount; ++s) {
    if (recount[s] == counts_[s]) continue;
    return std::string("count of ") + to_string(static_cast<EnvState>(s)) +
           " is " + std::to_string(counts_[s]) + ", records hold " +
           std::to_string(recount[s]);
  }
  std::uint64_t pool_bytes = 0;
  for (const EnvId id : pool_) pool_bytes += records_[id - 1].memory_bytes;
  if (pool_bytes != pool_bytes_) {
    return "pool ledger says " + std::to_string(pool_bytes_) +
           " bytes, pooled records hold " + std::to_string(pool_bytes);
  }
  return std::nullopt;
}

}  // namespace rattrap::core
