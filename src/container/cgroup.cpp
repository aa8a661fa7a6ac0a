#include "container/cgroup.hpp"

#include <algorithm>

namespace rattrap::container {

Cgroup::Cgroup(std::string name, std::uint32_t cpu_shares,
               std::uint64_t memory_limit)
    : name_(std::move(name)),
      cpu_shares_(cpu_shares),
      memory_limit_(memory_limit) {}

bool Cgroup::charge_memory(std::uint64_t bytes) {
  if (memory_usage_ + bytes > memory_limit_) return false;
  memory_usage_ += bytes;
  memory_peak_ = std::max(memory_peak_, memory_usage_);
  return true;
}

void Cgroup::uncharge_memory(std::uint64_t bytes) {
  memory_usage_ = bytes > memory_usage_ ? 0 : memory_usage_ - bytes;
}

Cgroup* CgroupHierarchy::create(const std::string& name,
                                std::uint32_t cpu_shares,
                                std::uint64_t memory_limit) {
  if (groups_.contains(name)) return nullptr;
  auto group = std::make_unique<Cgroup>(name, cpu_shares, memory_limit);
  Cgroup* raw = group.get();
  groups_.insert_or_assign(name, std::move(group));
  return raw;
}

Cgroup* CgroupHierarchy::find(std::string_view name) {
  const std::unique_ptr<Cgroup>* group = groups_.find(name);
  return group == nullptr ? nullptr : group->get();
}

const Cgroup* CgroupHierarchy::find(std::string_view name) const {
  const std::unique_ptr<Cgroup>* group = groups_.find(name);
  return group == nullptr ? nullptr : group->get();
}

bool CgroupHierarchy::destroy(std::string_view name) {
  return groups_.erase(name);
}

std::uint64_t CgroupHierarchy::total_memory_usage() const {
  std::uint64_t sum = 0;
  groups_.for_each([&sum](const std::string&, const auto& group) {
    sum += group->memory_usage();
  });
  return sum;
}

std::uint64_t CgroupHierarchy::total_cpu_shares() const {
  std::uint64_t sum = 0;
  groups_.for_each([&sum](const std::string&, const auto& group) {
    sum += group->cpu_shares();
  });
  return sum;
}

}  // namespace rattrap::container
