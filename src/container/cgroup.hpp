// Control groups: CPU shares and memory limits with usage accounting.
//
// Rattrap schedules at process level rather than VM level (§IV-A, Monitor
// & Scheduler); cgroups are the mechanism that bounds each Cloud Android
// Container.  Memory charging fails when the limit would be exceeded —
// the same semantics as memcg's hard limit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "sim/flat_hash.hpp"
#include "sim/time.hpp"

namespace rattrap::container {

class Cgroup {
 public:
  Cgroup(std::string name, std::uint32_t cpu_shares,
         std::uint64_t memory_limit);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t cpu_shares() const { return cpu_shares_; }
  [[nodiscard]] std::uint64_t memory_limit() const { return memory_limit_; }
  [[nodiscard]] std::uint64_t memory_usage() const { return memory_usage_; }
  [[nodiscard]] std::uint64_t memory_peak() const { return memory_peak_; }

  /// Charges memory; returns false (and charges nothing) past the limit.
  bool charge_memory(std::uint64_t bytes);

  /// Releases memory (clamped at zero).
  void uncharge_memory(std::uint64_t bytes);

  /// Accumulates consumed CPU time.
  void charge_cpu(sim::SimDuration time) { cpu_time_ += time; }
  [[nodiscard]] sim::SimDuration cpu_time() const { return cpu_time_; }

 private:
  std::string name_;
  std::uint32_t cpu_shares_;
  std::uint64_t memory_limit_;
  std::uint64_t memory_usage_ = 0;
  std::uint64_t memory_peak_ = 0;
  sim::SimDuration cpu_time_ = 0;
};

/// Flat hierarchy (one level under the root, as LXC uses it), hashed by
/// name; a group's pointer stays valid until its destroy().
class CgroupHierarchy {
 public:
  /// Creates a cgroup; returns nullptr when the name exists.
  Cgroup* create(const std::string& name, std::uint32_t cpu_shares,
                 std::uint64_t memory_limit);

  [[nodiscard]] Cgroup* find(std::string_view name);
  [[nodiscard]] const Cgroup* find(std::string_view name) const;

  /// Removes a cgroup; returns false when absent.
  bool destroy(std::string_view name);

  [[nodiscard]] std::size_t count() const { return groups_.size(); }

  /// Sum of memory usage across all groups.
  [[nodiscard]] std::uint64_t total_memory_usage() const;

  /// Sum of cpu shares across all groups (proportional-share denominator).
  [[nodiscard]] std::uint64_t total_cpu_shares() const;

 private:
  sim::FlatHashMap<std::string, std::unique_ptr<Cgroup>> groups_;
};

}  // namespace rattrap::container
