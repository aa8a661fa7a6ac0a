// Binder IPC driver model.
//
// Binder is Android's central inter-process communication mechanism; the
// paper highlights it as the canonical pseudo driver shipped by the
// Android Container Driver (Fig. 5).  This model implements the parts the
// platform exercises: per-device-namespace binder contexts, a service
// manager (handle 0) with named service registration, synchronous
// transactions with payload accounting, and per-namespace teardown.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/device.hpp"
#include "sim/fault.hpp"
#include "sim/time.hpp"

namespace rattrap::kernel {

/// Handle to a binder endpoint within one namespace (0 = service manager).
using BinderHandle = std::uint32_t;
inline constexpr BinderHandle kServiceManagerHandle = 0;

/// Service names (sorted, unique) that many namespaces register alike —
/// an OS image's boot service set — held once and shared read-only.
using SharedServiceTable = std::shared_ptr<const std::vector<std::string>>;

/// Builds a shared table from `names` (sorted and deduplicated here).
[[nodiscard]] SharedServiceTable make_service_table(
    std::vector<std::string> names);

struct BinderStats {
  std::uint64_t transactions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t failed = 0;  ///< dead handle / unknown service
};

class BinderDriver final : public Device {
 public:
  [[nodiscard]] std::string dev_path() const override {
    return "/dev/binder";
  }

  void on_namespace_destroyed(DevNsId ns) override;

  /// Creates a new endpoint (a process opening /dev/binder and calling
  /// BINDER_SET_CONTEXT_MGR-style registration is modelled as endpoint 0).
  BinderHandle create_endpoint(DevNsId ns);

  /// Destroys an endpoint; its registered services become dead and
  /// registered death notifications fire (linkToDeath semantics).
  bool destroy_endpoint(DevNsId ns, BinderHandle handle);

  /// Registers a death notification on `watched`: `on_death` fires once
  /// when the endpoint dies (immediately when it is already dead, as
  /// linkToDeath does). Returns false for unknown handles.
  bool link_to_death(DevNsId ns, BinderHandle watched,
                     std::function<void()> on_death);

  /// Registers `service_name` under `provider` with the namespace's
  /// service manager. Returns false when the provider is dead.
  bool register_service(DevNsId ns, const std::string& service_name,
                        BinderHandle provider);

  /// Registers every name in `table` under `provider` by sharing the
  /// table, not copying it; register_service() entries shadow it.
  /// Replaces an earlier shared table.  Returns false when the provider
  /// is dead.
  bool register_services(DevNsId ns, SharedServiceTable table,
                         BinderHandle provider);

  /// Service-manager lookup: resolves a name to the provider endpoint.
  [[nodiscard]] std::optional<BinderHandle> lookup_service(
      DevNsId ns, const std::string& service_name) const;

  /// Performs a synchronous transaction of `payload_bytes` from `from` to
  /// `to`. Returns the simulated round-trip cost, or std::nullopt when the
  /// target is dead (BR_DEAD_REPLY).
  std::optional<sim::SimDuration> transact(DevNsId ns, BinderHandle from,
                                           BinderHandle to,
                                           std::uint64_t payload_bytes);

  /// One-way (FLAG_ONEWAY) transaction: no reply, the payload queues in
  /// the target's bounded async buffer. Returns the one-way cost, or
  /// std::nullopt when the target is dead or its async buffer is full
  /// (binder returns EAGAIN-like failure in that case).
  std::optional<sim::SimDuration> transact_oneway(
      DevNsId ns, BinderHandle from, BinderHandle to,
      std::uint64_t payload_bytes);

  /// Target drains its async buffer (processes queued one-way work).
  /// Returns the bytes consumed.
  std::uint64_t drain_async(DevNsId ns, BinderHandle target);

  /// Bytes currently queued in an endpoint's async buffer.
  [[nodiscard]] std::uint64_t async_pending(DevNsId ns,
                                            BinderHandle target) const;

  /// Per-endpoint async buffer capacity (half the 1 MB binder mmap, as in
  /// the real driver's async budget).
  static constexpr std::uint64_t kAsyncBufferBytes = 512 * 1024;

  /// Namespace-local stats (all-zero for unknown namespaces).
  [[nodiscard]] BinderStats stats(DevNsId ns) const;

  /// Endpoints alive in a namespace.
  [[nodiscard]] std::size_t endpoint_count(DevNsId ns) const;

  /// Registered service names in a namespace (sorted).
  [[nodiscard]] std::vector<std::string> service_names(DevNsId ns) const;

  /// Cost model: one-way latency of a binder transaction carrying
  /// `payload_bytes` (kernel copies through the binder buffer).
  [[nodiscard]] static sim::SimDuration transaction_cost(
      std::uint64_t payload_bytes);

  /// Attaches a fault injector: transactions consult kBinderFail and
  /// return BR_DEAD_REPLY-style failures (nullopt, counted in
  /// stats().failed) when it fires. nullptr detaches.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Transactions failed by injection (subset of stats().failed totals).
  [[nodiscard]] std::uint64_t injected_failures() const {
    return injected_failures_;
  }

 private:
  struct Context {
    BinderHandle next_handle = 1;  // 0 reserved for the service manager
    std::map<BinderHandle, bool> endpoints;  // handle -> alive
    std::map<std::string, BinderHandle> services;
    SharedServiceTable shared_services;  ///< all under shared_provider
    BinderHandle shared_provider = 0;
    std::map<BinderHandle, std::vector<std::function<void()>>> death_links;
    std::map<BinderHandle, std::uint64_t> async_queued;  ///< bytes
    BinderStats stats;
    bool has_service_manager = false;
  };

  Context& context(DevNsId ns);
  [[nodiscard]] const Context* find_context(DevNsId ns) const;

  std::map<DevNsId, Context> contexts_;
  sim::FaultInjector* faults_ = nullptr;
  std::uint64_t injected_failures_ = 0;
};

}  // namespace rattrap::kernel
