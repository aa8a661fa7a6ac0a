// App Warehouse and the mobile code cache (§IV-D, Fig. 8).
//
// The first offloading request of an application uploads its code, once
// and for all.  The warehouse preserves the code and maintains a cache
// table: Reference → AID (application id) → the containers (CIDs) that
// have already executed this app.  Subsequent requests carry only the
// Reference; on HIT the cloud fetches the code locally and the Dispatcher
// prefers a container where the code is already loaded.
//
// The cache table is on the dispatch hot path (one lookup per request),
// so entries live in a slot deque indexed by a flat hash map
// (sim/flat_hash.hpp) with transparent string_view lookup — no per-lookup
// allocation, no tree walk.  Freed slots are recycled LIFO; entry
// addresses are stable while the entry is live.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/flat_hash.hpp"

namespace rattrap::core {

using Aid = std::uint32_t;          ///< application id in the cache table
using EnvId = std::uint32_t;        ///< runtime-environment id (CID/VM id)

struct CacheEntry {
  Aid aid = 0;
  std::string reference;            ///< client-visible code reference
  std::uint64_t code_bytes = 0;
  std::set<EnvId> containers;       ///< CIDs holding the loaded code
  std::uint64_t hits = 0;
  std::uint64_t last_use_seq = 0;   ///< LRU clock
};

class AppWarehouse {
 public:
  /// `capacity_bytes` bounds stored code; 0 = unbounded. Eviction is LRU.
  explicit AppWarehouse(std::uint64_t capacity_bytes = 0)
      : capacity_(capacity_bytes) {}

  /// Cache-table lookup: HIT when the code for `reference` is preserved.
  [[nodiscard]] bool hit(std::string_view reference) const {
    return index_.contains(reference);
  }

  /// Records an upload of `code_bytes` for `reference`; returns its AID.
  /// Re-uploading refreshes the stored size.
  Aid store(std::string_view reference, std::uint64_t code_bytes);

  /// Marks an execution of `reference`'s code in environment `env`.
  void record_execution(std::string_view reference, EnvId env);

  /// The environment the Dispatcher should prefer (one that already
  /// loaded this code), or nullopt on MISS/none.
  [[nodiscard]] std::optional<EnvId> preferred_env(
      std::string_view reference) const;

  /// Drops every mapping to `env` (the container was destroyed).
  void forget_env(EnvId env);

  [[nodiscard]] const CacheEntry* find(std::string_view reference) const;
  [[nodiscard]] std::size_t entry_count() const { return index_.size(); }
  [[nodiscard]] std::uint64_t stored_bytes() const { return stored_; }
  [[nodiscard]] std::uint64_t hit_count() const { return hit_total_; }
  [[nodiscard]] std::uint64_t miss_count() const { return miss_total_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Lookup that also updates hit/miss statistics (what the Dispatcher
  /// calls on each request).
  bool lookup(std::string_view reference);

  /// Attaches a fault injector: lookups consult kCacheEvict and, when it
  /// fires against a present entry, evict that entry *before* answering —
  /// the race where eviction lands between the Dispatcher's decision and
  /// the container's fetch. nullptr detaches.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Entries evicted by injected races (subset of evictions()).
  [[nodiscard]] std::uint64_t injected_evictions() const {
    return injected_evictions_;
  }

  /// Attaches a metrics registry: lookups count into warehouse.hits /
  /// warehouse.misses, evictions into warehouse.evictions, and
  /// warehouse.stored_bytes tracks the cache footprint. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attaches the invariant oracle's touch list: environments gaining or
  /// losing affinity mappings are appended to it.  nullptr detaches.
  void set_touches(std::vector<EnvId>* touches) { touches_ = touches; }

  /// Visits every live cache entry (deterministic slot order), for
  /// cross-component invariant checks — AID→CID mappings must only
  /// reference live containers.  Entries carry their own `reference`.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.live) fn(slot.entry);
    }
  }

 private:
  struct Slot {
    CacheEntry entry;
    bool live = false;
  };

  CacheEntry* lookup_slot(std::string_view reference);
  void erase_entry(std::uint32_t slot);
  void evict_lru();

  std::deque<Slot> slots_;               ///< stable entry storage
  std::vector<std::uint32_t> free_;      ///< recycled slots (LIFO)
  sim::FlatHashMap<std::string, std::uint32_t> index_;  ///< ref → slot
  std::uint64_t capacity_;
  std::uint64_t stored_ = 0;
  Aid next_aid_ = 1;
  std::uint64_t seq_ = 0;
  std::uint64_t hit_total_ = 0;
  std::uint64_t miss_total_ = 0;
  std::uint64_t evictions_ = 0;
  sim::FaultInjector* faults_ = nullptr;
  std::uint64_t injected_evictions_ = 0;
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
  obs::Gauge* metric_stored_bytes_ = nullptr;
  std::vector<EnvId>* touches_ = nullptr;
};

}  // namespace rattrap::core
