// Cluster-scale load driver: adapts the sim-layer arrival engine
// (sim/loadgen.hpp) into offloading requests against a core::Platform.
//
// Every run drives the platform through the Session API: one session per
// traffic-mix entry (or a single default standard-class session), each
// carrying its tenant / priority class / DRR weight.  Open-loop runs
// (Poisson / MMPP) submit the whole arrival schedule up front; closed-loop
// runs install a completion observer that draws the device's next think
// time — stretched by the platform's admission backpressure signal — and
// submits the follow-up request onto the same event queue, so the feedback
// loop is exactly as deterministic as a replayed stream (docs/LOADGEN.md,
// docs/QOS.md).
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

  /// Rejects with the given reason (0 when the reason never fired).
  [[nodiscard]] std::size_t rejected_for(RejectReason reason) const {
    const auto it = rejects_by_reason.find(reason);
    return it == rejects_by_reason.end() ? 0 : it->second;
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
/// Session handles making exactly the open/submit/close call sequence
/// the pre-transport driver made — the sim path stays byte-identical.
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

/// Materialized open-loop request stream for `config` (also the seed wave
/// of a closed-loop run).  Deterministic in the config; tasks cycle
/// through the variant pool.
[[nodiscard]] std::vector<workloads::OffloadRequest> make_load_stream(
    const LoadDriverConfig& config);

/// Drives `platform` with the configured load to completion and reduces
/// the outcomes.  Opens one Session per traffic-mix entry (or a single
/// default session when the mix is empty) so every request carries its
/// tenant / class / weight through admission.  Dispatches on
/// config.loadgen.arrival: open-loop models submit a materialized
/// schedule; kClosedLoop closes the loop through a completion observer
/// (installed for the duration of the call).
LoadSummary run_load(Platform& platform, const LoadDriverConfig& config);

/// Open-loop load over any transport: opens one stream per mix entry,
/// submits the materialized schedule in arrival order, closes every
/// stream and reduces the merged outcomes.  Closed-loop arrivals need
/// the in-process completion observer and are not expressible over a
/// transport — run_load() handles those.  An open_session reject aborts
/// the run (empty summary).
LoadSummary run_load_transport(SessionTransport& transport,
                               const LoadDriverConfig& config);

/// The request-accounting identity: every offered request completed or
/// was rejected, in total, per priority class and per tenant, and the
/// class and tenant slices each add up to the total.
[[nodiscard]] bool accounting_identity(const LoadSummary& summary);

/// Reduces an outcome vector to a LoadSummary (exposed for tests).
[[nodiscard]] LoadSummary summarize_load(
    const std::vector<RequestOutcome>& outcomes);

}  // namespace rattrap::core
