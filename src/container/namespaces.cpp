#include "container/namespaces.hpp"

#include <algorithm>

namespace rattrap::container {

PidNamespace::PidNamespace(std::shared_ptr<const PidNamespace> snapshot)
    : snapshot_(std::move(snapshot)),
      next_(snapshot_ == nullptr ? 1 : snapshot_->next_) {}

Pid PidNamespace::spawn(std::string name) {
  const Pid pid = next_++;
  procs_.emplace(pid, std::move(name));
  return pid;
}

bool PidNamespace::kill(Pid pid) {
  if (!exists(pid)) return false;
  if (pid == 1) {
    // init died: the whole namespace goes down, snapshot view included.
    procs_.clear();
    killed_.clear();
    snapshot_.reset();
    return true;
  }
  if (procs_.erase(pid) == 0) {
    killed_.insert(std::lower_bound(killed_.begin(), killed_.end(), pid),
                   pid);
  }
  return true;
}

bool PidNamespace::killed_in_snapshot(Pid pid) const {
  return std::binary_search(killed_.begin(), killed_.end(), pid);
}

const std::string* PidNamespace::find(Pid pid) const {
  if (const auto it = procs_.find(pid); it != procs_.end()) {
    return &it->second;
  }
  if (snapshot_ == nullptr || killed_in_snapshot(pid)) return nullptr;
  return snapshot_->find(pid);
}

std::optional<std::string> PidNamespace::name_of(Pid pid) const {
  const std::string* name = find(pid);
  if (name == nullptr) return std::nullopt;
  return *name;
}

std::size_t PidNamespace::count() const {
  const std::size_t inherited =
      snapshot_ == nullptr ? 0 : snapshot_->count() - killed_.size();
  return inherited + procs_.size();
}

std::vector<Pid> PidNamespace::pids() const {
  std::vector<Pid> out;
  out.reserve(count());
  if (snapshot_ != nullptr) {
    for (const Pid pid : snapshot_->pids()) {
      if (!killed_in_snapshot(pid)) out.push_back(pid);
    }
  }
  // Own pids are above every snapshot pid, so appending keeps the order.
  for (const auto& [pid, name] : procs_) {
    (void)name;
    out.push_back(pid);
  }
  return out;
}

}  // namespace rattrap::container
