// Weighted deficit round robin over tenants.
//
// Classic DRR (Shreedhar & Varghese) with unit item cost: each tenant
// keeps a FIFO of queued item ids; an active-tenant ring is visited in
// round-robin order, each visit topping the tenant's deficit up by
// quantum × weight and serving items until the deficit runs dry.  With
// unit costs a tenant with weight w is served w items per round while
// backlogged, so long-run service ratios match weight ratios to within
// one quantum — the property the DRR unit tests pin down.
//
// The scheduler is deterministic (no clocks, no randomness; ring order is
// arrival order of tenant activations) and exposes a conservation ledger:
// for every tenant, deficit granted == items served + current deficit +
// deficit forfeited when its queue emptied.  The qos-drr-conservation
// invariant (core/platform.cpp) evaluates check_conservation() after
// every simulator event.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "sim/time.hpp"

namespace rattrap::core::qos {

class DrrScheduler {
 public:
  explicit DrrScheduler(std::uint32_t quantum = 1)
      : quantum_(quantum > 0 ? quantum : 1) {}

  /// One dequeued item (pop() result).
  struct Served {
    std::uint64_t id = 0;
    std::string tenant;
    sim::SimTime enqueued_at = 0;
    /// Tenant deficit remaining after this pop (trace annotation).
    std::uint64_t deficit_after = 0;
  };

  /// Weight applies from the tenant's next deficit top-up; 0 clamps to 1.
  void set_weight(const std::string& tenant, std::uint32_t weight);
  [[nodiscard]] std::uint32_t weight(const std::string& tenant) const;

  void push(const std::string& tenant, std::uint64_t id, sim::SimTime at);

  /// Serves the next item under weighted DRR; nullopt when empty.
  std::optional<Served> pop();

  /// Removes a specific queued item (session finished while waiting).
  /// Returns false when (tenant, id) is not queued.
  bool remove(const std::string& tenant, std::uint64_t id);

  /// Drops every queued item and resets deficits (end-of-run drain).
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::uint32_t quantum() const { return quantum_; }

  // -- Introspection (tests, invariants, trace annotations) -------------

  [[nodiscard]] std::uint64_t deficit(const std::string& tenant) const;
  [[nodiscard]] std::uint64_t served(const std::string& tenant) const;
  [[nodiscard]] std::size_t queued(const std::string& tenant) const;

  /// Violation description, or nullopt while the ledger balances:
  /// granted == served + deficit + forfeited for every tenant, deficit
  /// bounded by quantum × weight, and per-tenant queue sizes sum to
  /// size().
  [[nodiscard]] std::optional<std::string> check_conservation() const;

 private:
  struct Item {
    std::uint64_t id = 0;
    sim::SimTime enqueued_at = 0;
  };
  struct Tenant {
    std::deque<Item> fifo;
    std::uint32_t weight = 1;
    bool active = false;        ///< has a ring slot
    std::uint64_t deficit = 0;  ///< unserved grant (unit costs)
    // Conservation ledger.
    std::uint64_t granted = 0;
    std::uint64_t served = 0;
    std::uint64_t forfeited = 0;  ///< deficit dropped on going idle
  };

  void deactivate(const std::string& name, Tenant& tenant);

  std::uint32_t quantum_;
  std::map<std::string, Tenant> tenants_;
  std::deque<std::string> ring_;  ///< active tenants, round-robin order
  std::size_t size_ = 0;
};

}  // namespace rattrap::core::qos
