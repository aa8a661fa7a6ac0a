// Kernel namespace models: pid, mount, network, uts, ipc.
//
// Each container gets its own process space, root filesystem and network
// resources (§IV-B).  The models keep the state the platform actually
// exercises: a pid table with an init process, a mount namespace rooted at
// a union filesystem, and a network namespace with an address and a veth
// pair name.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fs/union_fs.hpp"

namespace rattrap::container {

using Pid = std::int32_t;

/// Process table of one pid namespace. Pid 1 is reserved for init and is
/// spawned implicitly on construction... of the first process.
///
/// A namespace may start from a shared snapshot of a booted process tree
/// (a container template's init and its daemons): the snapshot is read
/// through, and the namespace keeps only its own delta — the processes it
/// spawned and the snapshot processes it killed.  Killing init drops the
/// delta and the snapshot reference together.
class PidNamespace {
 public:
  PidNamespace() = default;
  /// A namespace whose process table starts as `snapshot`'s; the next
  /// spawn takes the pid after the snapshot's last.
  explicit PidNamespace(std::shared_ptr<const PidNamespace> snapshot);

  /// Spawns a process; the first spawn becomes pid 1 (init).
  Pid spawn(std::string name);

  /// Kills a process. Killing pid 1 kills every process (namespace dies
  /// with its init, as in the kernel).
  bool kill(Pid pid);

  [[nodiscard]] bool exists(Pid pid) const { return find(pid) != nullptr; }
  [[nodiscard]] std::optional<std::string> name_of(Pid pid) const;
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::vector<Pid> pids() const;

 private:
  /// The live process `pid`'s name, here or in the snapshot.
  [[nodiscard]] const std::string* find(Pid pid) const;
  [[nodiscard]] bool killed_in_snapshot(Pid pid) const;

  std::shared_ptr<const PidNamespace> snapshot_;
  std::vector<Pid> killed_;  ///< snapshot pids killed here, ascending
  std::map<Pid, std::string> procs_;
  Pid next_ = 1;
};

/// Mount namespace: a private view rooted at a union filesystem.
struct MountNamespace {
  std::shared_ptr<fs::UnionFs> root;
};

/// Network namespace: an interface pair and an address.
struct NetNamespace {
  std::string veth_host;  ///< host-side interface, e.g. "veth-cac3"
  std::string address;    ///< e.g. "10.0.3.2"
};

/// UTS namespace: hostname isolation.
struct UtsNamespace {
  std::string hostname;
};

/// IPC namespace marker (System V objects are not modelled further).
struct IpcNamespace {
  std::uint32_t id = 0;
};

/// Bundle of all namespaces owned by one container.
struct NamespaceSet {
  PidNamespace pid;
  MountNamespace mnt;
  NetNamespace net;
  UtsNamespace uts;
  IpcNamespace ipc;
};

}  // namespace rattrap::container
