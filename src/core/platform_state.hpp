// Platform internals shared by the engine (platform.cpp) and the
// invariant oracle (oracle.cpp): one offload session's state.  Not part
// of the public API.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/platform.hpp"

namespace rattrap::core {

struct Platform::SessionState {
  workloads::OffloadRequest request;
  const KindData* app = nullptr;  ///< the platform's data for `kind`
  workloads::Kind kind = workloads::Kind::kLinpack;
  workloads::TaskResult executed;  ///< real kernel execution
  std::optional<net::Connection> conn;  ///< in the pooled session block
  PhaseBreakdown phases;
  sim::SimTime connected_at = 0;
  sim::SimDuration upload_time = 0;
  sim::SimDuration download_time = 0;
  bool cache_hit = false;
  bool spilled_to_disk = false;  ///< tmpfs full: files staged on disk
  EnvRecord* env = nullptr;  ///< bound, so pinned (EnvRecord::inflight)

  // Fault-injection state. Scheduled continuations (Platform::guarded)
  // capture `epoch` and bail when it moved on — a crash invalidates every
  // event the session had in flight without having to cancel them
  // individually.
  std::uint64_t epoch = 0;
  std::uint32_t dispatch_attempts = 0;
  std::uint32_t connect_attempts = 0;
  bool recovered = false;   ///< survived at least one environment crash
  bool resumed = false;     ///< stalled through a handoff outage
  bool staged = false;      ///< files currently staged in the shared tmpfs
  bool computing = false;   ///< holds a Monitor job slot
  bool done = false;        ///< ended: finish_session recorded its outcome

  // Access-control state (docs/RAC.md).
  bool rac_slot = false;    ///< holds a RAC in-flight quota slot

  // Admission-control state (docs/LOADGEN.md).
  bool admitted = false;    ///< holds an in-service slot
  bool queued = false;      ///< waiting in the bounded accept queue
  sim::SimDuration queue_wait = 0;
  sim::SimDuration pending_lead = 0;  ///< dispatch lead cost when popped

  // QoS identity, inherited from the owning Session (docs/QOS.md).
  std::uint64_t stream_id = 0;
  std::string tenant;       ///< resolved: stream tenant, or app id
  qos::PriorityClass klass = qos::PriorityClass::kStandard;
  sim::SimDuration deadline = 0;
  std::uint64_t drr_deficit = 0;  ///< tenant deficit after the queue pop

  // Observability state (docs/OBSERVABILITY.md). Spans live on track
  // `request.sequence + 1`; track 0 is the platform itself.
  obs::SpanId span_session = obs::kNoSpan;  ///< root "session" span
  obs::SpanId span_phase = obs::kNoSpan;    ///< current phase span
  bool fresh_env = false;  ///< bound to an env that still had to boot
  std::map<sim::FaultKind, std::uint64_t> fault_hits;

  // Live-list links (Platform::live_head_): from arrival to its ending
  // the list owns the session through its predecessor's `live_next`.
  std::shared_ptr<SessionState> live_next;
  SessionState* live_prev = nullptr;
  bool live = false;  ///< linked into the live list

  [[nodiscard]] const std::string& app_id() const {
    return app->app.app_id();
  }
};

template <typename F>
void Platform::for_each_live(F&& f) const {
  for (const std::shared_ptr<SessionState>* link = &live_head_;
       *link != nullptr; link = &(*link)->live_next) {
    f(*link);
  }
}

}  // namespace rattrap::core
