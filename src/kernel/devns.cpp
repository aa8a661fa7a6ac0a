#include "kernel/devns.hpp"

namespace rattrap::kernel {

DevNsId DeviceNamespaceManager::allocate(DevNsId base) {
  const DevNsId ns = next_++;
  active_.insert_or_assign(ns, true);
  registry_.namespace_created(ns, base);
  return ns;
}

DevNsId DeviceNamespaceManager::create_template() {
  return allocate(kHostDevNs);
}

DevNsId DeviceNamespaceManager::create(DevNsId base) {
  const DevNsId ns = allocate(base);
  if (faults_ != nullptr &&
      faults_->should_fire(sim::FaultKind::kDevNsTeardown)) {
    // Teardown racing creation: every driver sees the full
    // created → destroyed lifecycle, but the caller gets a dead id and
    // must fail its container start cleanly.
    ++injected_teardowns_;
    destroy(ns);
  }
  return ns;
}

bool DeviceNamespaceManager::destroy(DevNsId ns) {
  if (active_.erase(ns) == 0) return false;
  registry_.namespace_destroyed(ns);
  return true;
}

}  // namespace rattrap::kernel
