#include "kernel/kernel.hpp"

#include <utility>

namespace rattrap::kernel {

HostKernel::HostKernel(sim::Simulator& simulator)
    : sim_(simulator), devns_(devices_) {
  // General-purpose kernel features every modern server kernel has; these
  // are what OS-level virtualization builds on.
  features_ = {"pid_ns",  "mnt_ns",  "net_ns",   "ipc_ns",
               "uts_ns",  "cgroups", "overlayfs", "tmpfs"};
}

bool HostKernel::has_feature(std::string_view feature) const {
  return features_.contains(feature);
}

void HostKernel::add_feature(std::string feature) {
  features_.insert(std::move(feature));
  ++features_epoch_;
}

void HostKernel::remove_feature(std::string_view feature) {
  const auto it = features_.find(feature);
  if (it != features_.end()) features_.erase(it);
  ++features_epoch_;
}

sim::SimDuration HostKernel::load_module(
    std::unique_ptr<KernelModule> module) {
  if (!module) return 0;
  const std::string name = module->name();
  if (modules_.contains(name)) return 0;
  for (const auto& dep : module->dependencies()) {
    if (!modules_.contains(dep)) return 0;
  }
  const sim::SimDuration cost = module->load_cost();
  module->on_load(*this);
  modules_.emplace(name, LoadedModule{std::move(module), 0});
  return cost;
}

bool HostKernel::module_loaded(std::string_view name) const {
  return modules_.contains(name);
}

bool HostKernel::module_get(std::string_view name) {
  const auto it = modules_.find(name);
  if (it == modules_.end()) return false;
  ++it->second.refcount;
  return true;
}

bool HostKernel::module_put(std::string_view name) {
  const auto it = modules_.find(name);
  if (it == modules_.end() || it->second.refcount == 0) return false;
  --it->second.refcount;
  return true;
}

std::uint32_t HostKernel::module_refcount(std::string_view name) const {
  const auto it = modules_.find(name);
  return it == modules_.end() ? 0 : it->second.refcount;
}

bool HostKernel::unload_module(std::string_view name) {
  const auto it = modules_.find(name);
  if (it == modules_.end() || it->second.refcount != 0) return false;
  // Refuse while another loaded module depends on this one.
  for (const auto& [other_name, other] : modules_) {
    if (other_name == it->first) continue;
    for (const auto& dep : other.module->dependencies()) {
      if (dep == it->first) return false;
    }
  }
  it->second.module->on_unload(*this);
  modules_.erase(it);
  return true;
}

std::string HostKernel::proc_modules() const {
  std::string out;
  for (const auto& [name, mod] : modules_) {
    (void)mod;
    out += name;
    out += ' ';
    out += std::to_string(mod.refcount);
    out += '\n';
  }
  return out;
}

std::vector<std::string> HostKernel::loaded_modules() const {
  std::vector<std::string> names;
  names.reserve(modules_.size());
  for (const auto& [name, mod] : modules_) {
    (void)mod;
    names.push_back(name);
  }
  return names;
}

}  // namespace rattrap::kernel
