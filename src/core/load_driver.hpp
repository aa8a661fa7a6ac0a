// Fleet-scale load driver: adapts the sim-layer arrival engine
// (sim/loadgen.hpp) into offloading requests against a core::Platform.
//
// Every run drives the Session API through one loop over a
// SessionTransport: one stream per traffic-mix entry (or a single default
// standard-class session), each carrying its tenant / priority class /
// DRR weight; the arrival schedule is submitted up front and the first
// close drains the run.  One request builder turns (sequence, device,
// time, mix slot) into a request, adversary task shaping included, for
// the schedule, the closed-loop follow-ups and make_load_stream alike.
// Closed-loop runs submit only the seed wave up front and install a
// completion observer that draws the device's next think time —
// stretched by the platform's admission backpressure signal — and
// submits the follow-up through the same transport onto the same event
// queue, so the feedback loop is exactly as deterministic as a replayed
// stream (docs/LOADGEN.md, docs/QOS.md).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/qos/qos.hpp"
#include "sim/loadgen.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {

struct LoadDriverConfig {
  sim::LoadGenConfig loadgen;

  /// Workload every synthetic request runs.
  workloads::Kind kind = workloads::Kind::kLinpack;

  /// Input scale; 0 uses the paper-calibrated default for `kind`.
  std::uint32_t size_class = 0;

  /// Distinct task instances cycled across requests.  Tasks are executed
  /// for real to obtain work units, so a 10^5-request run must reuse a
  /// small variant pool (the process-wide memo makes repeats free).
  std::uint32_t task_variants = 8;
};

/// Per-radio slice of a LoadSummary: completed requests split by the
/// radio ("LAN", "3G", ...) the device was on at completion — how the
/// mobility-handoff experiments show the paper's per-radio cost models
/// (§VI-A links, PowerTutor radio profiles) acting on each phase.
struct RadioLoadStats {
  std::size_t completed = 0;
  double mean_transfer_ms = 0;   ///< data_transfer phase (up + down)
  double mean_response_ms = 0;
  double mean_energy_mj = 0;     ///< device-side offload episode energy
};

/// Per-priority-class slice of a LoadSummary (docs/QOS.md).
struct ClassLoadStats {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t deadline_missed = 0;

  // Response-time distribution of this class's *completed* requests (ms).
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

/// Per-tenant slice of a LoadSummary (docs/RAC.md): the attack-scenario
/// experiments compare a victim tenant's tail latency under attack
/// against its unattacked baseline, and the property battery checks the
/// accounting identity per tenant.
struct TenantLoadStats {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;

  // Response-time distribution of this tenant's *completed* requests (ms).
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// What one load-generation run produced, reduced to the numbers the
/// saturation bench sweeps (goodput curve, tail latency, shed classes).
struct LoadSummary {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;   ///< all reject classes, stranded included
  std::size_t stranded = 0;
  std::map<RejectReason, std::size_t> rejects_by_reason;

  double duration_s = 0;          ///< virtual span, first arrival → drain
  double offered_rate_per_s = 0;  ///< offered / duration
  double goodput_per_s = 0;       ///< completed / duration

  // Response-time distribution of *completed* requests (ms).
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;

  /// Mean accept-queue wait across completed requests (ms).
  double mean_queue_wait_ms = 0;

  /// Per-priority-class breakdown, indexed by qos::class_index().
  std::array<ClassLoadStats, qos::kClassCount> by_class;

  /// Completed requests per tenant (the DRR fairness numerator).
  std::map<std::string, std::size_t> completed_by_tenant;

  /// Full per-tenant breakdown (victim-vs-attacker comparisons).
  std::map<std::string, TenantLoadStats> by_tenant;

  /// Completed requests split by the radio at completion (mid-run
  /// handoffs populate several slices; steady links exactly one).
  std::map<std::string, RadioLoadStats> by_radio;

  /// Sessions interrupted by a handoff outage that resumed and reached a
  /// terminal outcome (completed or rejected) — the session-resumption
  /// numerator the mobility experiments gate on.
  std::size_t resumed = 0;

  [[nodiscard]] const ClassLoadStats& for_class(
      qos::PriorityClass klass) const {
    return by_class[qos::class_index(klass)];
  }
};

/// Transport seam of the load driver (docs/RPC.md): the same open-loop
/// workload drives the Session API either in-process against a Platform
/// (the deterministic sim-clock twin) or across real sockets through
/// rpc::ClientTransport.  A stream id returned by open_session() keys
/// submit()/close(); ids are transport-scoped and never reused within a
/// run.
class SessionTransport {
 public:
  virtual ~SessionTransport() = default;

  /// Opens one session carrying `config`; the typed reject mirrors
  /// Platform::open_session (kInvalidConfig, RAC denials, ...).
  virtual Result<std::uint64_t> open_session(const SessionConfig& config) = 0;

  /// Schedules one request on stream `id`.  Fire-and-forget: terminal
  /// status for every submitted sequence arrives with close().
  virtual void submit(std::uint64_t id,
                      const workloads::OffloadRequest& request) = 0;

  /// Drains the run and returns this stream's outcomes in submission
  /// order (the first close drains the shared event queue, like
  /// Session::close()).
  virtual std::vector<RequestOutcome> close(std::uint64_t id) = 0;
};

/// SessionTransport over an in-process Platform: a thin adapter around
/// Session handles.  submit() may be called from the platform's
/// completion observer while close() drains (the closed loop does).
/// close() is Session::take(): the outcomes change hands uncopied, and
/// Platform::result() answers nullptr for the closed stream's sequences.
class LocalSessionTransport final : public SessionTransport {
 public:
  explicit LocalSessionTransport(Platform& platform) : platform_(platform) {}

  Result<std::uint64_t> open_session(const SessionConfig& config) override;
  void submit(std::uint64_t id,
              const workloads::OffloadRequest& request) override;
  std::vector<RequestOutcome> close(std::uint64_t id) override;

 private:
  Platform& platform_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_id_ = 1;
};

/// SessionConfig of traffic-mix slot `slot` (a single default
/// standard-class session when the mix is empty), adversary shaping
/// applied (docs/RAC.md).  Shared by the local and RPC drivers so both
/// transports open identical sessions.
[[nodiscard]] SessionConfig mix_session_config(
    const sim::LoadGenConfig& loadgen, std::size_t slot);

/// Materialized request stream for `config`: exactly the requests the
/// driver submits up front (the whole open-loop schedule, or the seed
/// wave of a closed-loop run), adversary task shaping included.
/// Deterministic in the config; tasks cycle through the variant pool.
[[nodiscard]] std::vector<workloads::OffloadRequest> make_load_stream(
    const LoadDriverConfig& config);

/// Drives `platform` with the configured load to completion and reduces
/// the outcomes, through a LocalSessionTransport and the same loop as
/// run_load_transport: one stream per traffic-mix entry (or a single
/// default session when the mix is empty), so every request carries its
/// tenant / class / weight through admission.  kClosedLoop only adds a
/// completion observer (installed for the duration of the call) that
/// submits each follow-up through the transport.
LoadSummary run_load(Platform& platform, const LoadDriverConfig& config);

/// run_load that also hands back the run's outcomes, indexed by sequence
/// (the closes leave none behind in the platform).
LoadSummary run_load(Platform& platform, const LoadDriverConfig& config,
                     std::vector<RequestOutcome>& outcomes);

/// Open-loop load over any transport: opens one stream per mix entry,
/// submits the materialized schedule in arrival order, closes every
/// stream and reduces the merged outcomes.  Closed-loop arrivals need
/// the in-process completion observer, which cannot cross a remote
/// transport — run_load() handles those.  An open_session reject aborts
/// the run (empty summary).
LoadSummary run_load_transport(SessionTransport& transport,
                               const LoadDriverConfig& config);

/// The request-accounting identity: every offered request completed or
/// was rejected, in total, per priority class and per tenant, and the
/// class and tenant slices each add up to the total.
[[nodiscard]] bool accounting_identity(const LoadSummary& summary);

/// The identity, and the run offered every one of the `requested`
/// requests its driver planned (sim::planned_requests): a run that
/// silently offered fewer is a violation too.
[[nodiscard]] bool accounting_identity(const LoadSummary& summary,
                                       std::size_t requested);

/// Reduces an outcome vector to a LoadSummary (exposed for tests).
[[nodiscard]] LoadSummary summarize_load(
    const std::vector<RequestOutcome>& outcomes);

}  // namespace rattrap::core
