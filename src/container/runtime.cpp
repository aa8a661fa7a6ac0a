#include "container/runtime.hpp"

#include <algorithm>

namespace rattrap::container {

Container& ContainerRuntime::create(ContainerConfig config) {
  std::string name = config.name;
  return create(std::make_shared<const ContainerConfig>(std::move(config)),
                std::move(name));
}

Container& ContainerRuntime::create(
    std::shared_ptr<const ContainerConfig> config, std::string name) {
  const ContainerId id = next_id_++;
  auto container = std::make_unique<Container>(id, std::move(config),
                                               std::move(name), kernel_);
  Container& ref = *container;
  containers_.insert_or_assign(id, std::move(container));
  return ref;
}

bool ContainerRuntime::features_present(
    const std::shared_ptr<const ContainerConfig>& config) {
  if (config == features_checked_ &&
      features_epoch_ == kernel_.features_epoch()) {
    return true;
  }
  for (const auto& feature : config->required_features) {
    if (!kernel_.has_feature(feature)) return false;
  }
  features_checked_ = config;
  features_epoch_ = kernel_.features_epoch();
  return true;
}

std::optional<sim::SimDuration> ContainerRuntime::start(ContainerId id) {
  Container* c = find(id);
  if (c == nullptr) return std::nullopt;
  if (!features_present(c->shared_config())) return std::nullopt;
  Cgroup* group = c->cgroup();
  if (group == nullptr) {
    group = cgroups_.create(c->name(), c->config().cpu_shares,
                            c->config().memory_limit);
  }
  if (group == nullptr) return std::nullopt;
  return c->start(*group);
}

sim::SimDuration ContainerRuntime::stop(ContainerId id) {
  Container* c = find(id);
  return c == nullptr ? 0 : c->stop();
}

bool ContainerRuntime::crash(ContainerId id) {
  Container* c = find(id);
  if (c == nullptr || c->state() != ContainerState::kRunning) return false;
  c->stop();  // kernel-side reaping is identical to a clean stop
  ++crashes_;
  return true;
}

bool ContainerRuntime::destroy(ContainerId id) {
  Container* c = find(id);
  if (c == nullptr) return false;
  c->stop();
  c->destroy();
  if (c->cgroup() != nullptr) cgroups_.destroy(c->name());
  containers_.erase(id);
  return true;
}

Container* ContainerRuntime::find(ContainerId id) {
  const std::unique_ptr<Container>* c = containers_.find(id);
  return c == nullptr ? nullptr : c->get();
}

const Container* ContainerRuntime::find(ContainerId id) const {
  const std::unique_ptr<Container>* c = containers_.find(id);
  return c == nullptr ? nullptr : c->get();
}

std::size_t ContainerRuntime::running_count() const {
  std::size_t n = 0;
  containers_.for_each([&n](ContainerId, const std::unique_ptr<Container>& c) {
    if (c->state() == ContainerState::kRunning) ++n;
  });
  return n;
}

std::vector<ContainerId> ContainerRuntime::ids() const {
  std::vector<ContainerId> out;
  out.reserve(containers_.size());
  containers_.for_each([&out](ContainerId id, const auto&) {
    out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rattrap::container
