#include "core/warehouse.hpp"

#include <cassert>
#include <utility>

namespace rattrap::core {

std::string code_reference(std::string_view app_id) {
  std::string reference = "ref:";
  reference.append(app_id);
  return reference;
}

void AppWarehouse::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_hits_ = metric_misses_ = metric_evictions_ = nullptr;
    metric_stored_bytes_ = nullptr;
    return;
  }
  metric_hits_ = &metrics->counter("warehouse.hits");
  metric_misses_ = &metrics->counter("warehouse.misses");
  metric_evictions_ = &metrics->counter("warehouse.evictions");
  metric_stored_bytes_ = &metrics->gauge("warehouse.stored_bytes");
}

CacheEntry* AppWarehouse::lookup_slot(std::string_view reference) {
  const std::uint32_t* slot = index_.find(reference);
  return slot == nullptr ? nullptr : &slots_[*slot].entry;
}

void AppWarehouse::erase_entry(std::uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.live);
  index_.erase(s.entry.reference);
  for (const EnvId env : s.entry.containers) unmap(env);
  s.entry = CacheEntry{};
  s.live = false;
  free_.push_back(slot);
}

bool AppWarehouse::lookup(std::string_view reference) {
  const std::uint32_t* slot = index_.find(reference);
  if (slot != nullptr && faults_ != nullptr &&
      faults_->should_fire(sim::FaultKind::kCacheEvict)) {
    // Eviction racing the lookup: the entry vanishes before the answer
    // lands, so this request must re-upload its code.
    stored_ -= slots_[*slot].entry.code_bytes;
    ++evictions_;
    if (metric_evictions_ != nullptr) {
      metric_evictions_->inc();
      metric_stored_bytes_->set(static_cast<double>(stored_));
    }
    erase_entry(*slot);
    slot = nullptr;
  }
  if (slot == nullptr) {
    ++miss_total_;
    if (metric_misses_ != nullptr) metric_misses_->inc();
    return false;
  }
  CacheEntry& entry = slots_[*slot].entry;
  ++hit_total_;
  if (metric_hits_ != nullptr) metric_hits_->inc();
  ++entry.hits;
  entry.last_use_seq = ++seq_;
  return true;
}

Aid AppWarehouse::store(std::string_view reference,
                        std::uint64_t code_bytes) {
  if (CacheEntry* entry = lookup_slot(reference)) {
    stored_ -= entry->code_bytes;
    entry->code_bytes = code_bytes;
    stored_ += code_bytes;
    entry->last_use_seq = ++seq_;
    return entry->aid;
  }
  while (capacity_ != 0 && index_.size() != 0 &&
         stored_ + code_bytes > capacity_) {
    evict_lru();
  }
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.entry.aid = next_aid_++;
  s.entry.reference = std::string(reference);
  s.entry.code_bytes = code_bytes;
  s.entry.last_use_seq = ++seq_;
  s.live = true;
  stored_ += code_bytes;
  index_.insert_or_assign(s.entry.reference, slot);
  if (metric_stored_bytes_ != nullptr) {
    metric_stored_bytes_->set(static_cast<double>(stored_));
  }
  return s.entry.aid;
}

void AppWarehouse::record_execution(std::string_view reference, EnvId env) {
  CacheEntry* entry = lookup_slot(reference);
  if (entry == nullptr) return;
  // Only a new mapping can break affinity-live, so only one is a touch.
  if (entry->containers.insert(env).second) {
    ++mappings_[env];
    if (touches_ != nullptr) touches_->push_back(env);
  }
  entry->last_use_seq = ++seq_;
}

std::optional<EnvId> AppWarehouse::preferred_env(
    std::string_view reference) const {
  const std::uint32_t* slot = index_.find(reference);
  if (slot == nullptr) return std::nullopt;
  const CacheEntry& entry = slots_[*slot].entry;
  if (entry.containers.empty()) return std::nullopt;
  // Deterministic choice: the lowest CID that has run this app.
  return *entry.containers.begin();
}

void AppWarehouse::forget_env(EnvId env) {
  if (mappings_.erase(env)) {
    for (Slot& slot : slots_) {
      if (slot.live) slot.entry.containers.erase(env);
    }
  }
  if (touches_ != nullptr) touches_->push_back(env);
}

void AppWarehouse::unmap(EnvId env) {
  std::uint32_t* count = mappings_.find(env);
  if (count != nullptr && --*count == 0) mappings_.erase(env);
}

const CacheEntry* AppWarehouse::find(std::string_view reference) const {
  const std::uint32_t* slot = index_.find(reference);
  return slot == nullptr ? nullptr : &slots_[*slot].entry;
}

void AppWarehouse::evict_lru() {
  // The LRU clock is unique per entry, so the victim — and therefore the
  // eviction order — is deterministic regardless of slot layout.
  std::uint32_t victim = UINT32_MAX;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) continue;
    if (victim == UINT32_MAX ||
        slots_[i].entry.last_use_seq < slots_[victim].entry.last_use_seq) {
      victim = i;
    }
  }
  assert(victim != UINT32_MAX);
  stored_ -= slots_[victim].entry.code_bytes;
  ++evictions_;
  if (metric_evictions_ != nullptr) {
    metric_evictions_->inc();
    metric_stored_bytes_->set(static_cast<double>(stored_));
  }
  erase_entry(victim);
}

}  // namespace rattrap::core
