// Platform facade: the three cloud platforms the paper evaluates.
//
//   VmCloud           — Android-x86 in VirtualBox, 1 vCPU / 512 MB per VM.
//   RattrapWithoutOpt — containers replace VMs, but no OS customization,
//                       no Shared Resource Layer, no code cache (§VI-A).
//   Rattrap           — the full system.
//
// A Platform instance owns a CloudServer and an event-driven offload
// engine; feeding it a replayable request stream produces per-request
// phase breakdowns, traffic accounts, energy figures and the server-load
// timelines — everything the evaluation section charts.
//
// Clients talk to the engine through Session handles (open_session →
// submit → result/close): a session carries the QoS identity — tenant,
// priority class, DRR weight, deadline — that the admission front door
// schedules on (docs/QOS.md).  run() is sugar over one default session.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "android/app.hpp"
#include "container/registry.hpp"
#include "core/admission.hpp"
#include "core/cac.hpp"
#include "core/dispatcher.hpp"
#include "core/env_table.hpp"
#include "core/elastic/pool_controller.hpp"
#include "core/invariant.hpp"
#include "core/offload.hpp"
#include "core/qos/qos.hpp"
#include "core/server.hpp"
#include "device/client.hpp"
#include "device/device.hpp"
#include "net/connection.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/arena.hpp"
#include "sim/fault.hpp"

namespace rattrap::core {

enum class PlatformKind : std::uint8_t {
  kVmCloud,
  kRattrapWithoutOpt,
  kRattrap,
};

[[nodiscard]] const char* to_string(PlatformKind kind);

/// One scheduled device handoff: at virtual time `at` the fleet's radio
/// becomes `to` (the paper's per-radio cost models follow — §VI-A link
/// parameters and the PowerTutor radio profiles).  `outage` > 0 models a
/// hard handover: connectivity is gone for that long and sessions mid
/// radio operation stall until the new radio attaches.
struct HandoffEvent {
  sim::SimTime at = 0;
  net::LinkConfig to;
  sim::SimDuration outage = 0;
};

struct PlatformConfig {
  PlatformKind kind = PlatformKind::kRattrap;
  net::LinkConfig link = net::lan_wifi();
  std::uint64_t seed = 1;

  // Feature flags (derived from `kind` by make_config; individually
  // overridable for the ablation benches).
  bool container_backing = true;    ///< containers vs VMs
  bool customized_os = true;        ///< stripped image + stub services
  bool shared_resource_layer = true;///< shared RO system layer
  bool sharing_offload_io = true;   ///< shared tmpfs for offload files
  bool code_cache = true;           ///< App Warehouse
  bool dispatcher_affinity = true;  ///< AID → CID routing

  /// Idle environments are reclaimed (stopped, memory freed) after this
  /// long without work — the cloud cannot keep per-user runtimes resident
  /// forever (§III-B: pre-loading "would inevitably reduce the server
  /// resource utilization"). 0 disables reclamation.
  sim::SimDuration env_idle_timeout = 300 * sim::kSecond;

  /// Full calibration override (server cores, rates, disk, overheads) —
  /// how researchers model different hardware (e.g. an edge cloudlet vs
  /// a datacenter server). Unset keeps default_calibration().
  std::optional<Calibration> calibration;

  /// Overrides the shared offloading-I/O tmpfs capacity (bytes);
  /// 0 keeps the calibration default. Small values force the staging
  /// fallback path (offload files spill to disk when memory is full).
  std::uint64_t tmpfs_capacity_override = 0;

  /// Client-side adaptive offloading decision (the §II "offloading
  /// decision" half of the mechanism): after a few exploratory offloads
  /// per app, requests run locally whenever the device's EWMA of remote
  /// responses exceeds its EWMA of local execution times.
  bool adaptive_offloading = false;

  /// Elastic capacity manager: lifecycle-managed warm pool with a
  /// static-replenishing or forecast-driven target, hysteretic
  /// drain-based scale-down and a memory budget (docs/ELASTIC.md).
  /// With the controller disabled, `elastic.static_target` environments
  /// are still pre-booted at reset and never replenished: the §III-B
  /// warm pool, which hides the cold start but holds memory the whole
  /// time.  Pool environments are exempt from idle reclamation until
  /// first use.
  elastic::ElasticConfig elastic;

  // -- Fault injection (docs/FAULTS.md) --------------------------------

  /// Fault schedule evaluated during run(); empty = no faults. Build it
  /// programmatically or with sim::FaultPlan::parse("net.drop:p=0.05;…").
  sim::FaultPlan fault_plan;

  /// Arms the invariant oracle: the cross-component invariants are
  /// checked after every simulator event when a fault plan is installed
  /// or force_invariants is set (docs/FAULTS.md).  false disarms it in
  /// both cases.
  bool check_invariants = true;

  /// Crash recovery: the Monitor's health sweep detects a dead
  /// environment and the Dispatcher re-dispatches its sessions to a
  /// fresh one. Disabling this strands those sessions on a dead CID —
  /// which the invariant harness must catch.
  bool crash_recovery = true;

  /// Re-dispatch budget per session (crashed environments); exceeded ⇒
  /// the request is rejected.
  std::uint32_t max_redispatch = 3;

  /// Connection-attempt budget under injected drops; each retry backs
  /// off exponentially from 200 ms.
  std::uint32_t max_connect_attempts = 4;

  // -- Device mobility (docs/LOADGEN.md) -------------------------------

  /// Scheduled mid-run radio handoffs (WiFi↔3G/4G), applied to the one
  /// shared link in virtual-time order.  A handoff with an outage models
  /// the disconnect/reconnect gap of a hard handover: radio operations
  /// (handshakes, upload starts, result downloads) stall until the new
  /// radio attaches, then every interrupted session resumes where it
  /// left off — nothing is rejected, the accounting identity holds.
  /// Each run replays the same plan from its base link (the plan is
  /// per-run state, like the fault pump's one-shot rules).
  std::vector<HandoffEvent> mobility;

  // -- Admission control & QoS (docs/LOADGEN.md, docs/QOS.md) ----------

  /// Dispatcher front door: class-aware bounded accept queues, per-tenant
  /// token buckets, utilization-based shedding.  Disabled by default —
  /// the paper-reproduction benches run unprotected, like the prototype.
  AdmissionConfig admission;

  /// Request-based Access Controller policy (§IV-E, docs/RAC.md):
  /// violation threshold, block window and per-tenant in-flight quota.
  /// Defaults keep the seed behaviour (threshold 5, permanent blocks, no
  /// quota).
  AccessConfig access;

  /// Run the invariant oracle even without a fault plan (the property
  /// batteries, experiments).  Each check costs what its event touched,
  /// so this is affordable at any scale (docs/FAULTS.md).
  bool force_invariants = false;
};

/// Canonical configuration for one of the three evaluated platforms.
[[nodiscard]] PlatformConfig make_config(PlatformKind kind,
                                         net::LinkConfig link = net::lan_wifi(),
                                         std::uint64_t seed = 1);

/// Table I row: what provisioning one runtime environment costs.
struct ProvisionStats {
  sim::SimDuration setup_time = 0;   ///< boot → connected to Dispatcher
  std::uint64_t memory_configured = 0;  ///< allocation (512/128/96 MB)
  std::uint64_t memory_usage = 0;    ///< measured resident peak
  std::uint64_t disk_bytes = 0;      ///< per-environment disk footprint
  std::uint64_t shared_disk_bytes = 0;  ///< amortized shared layer (once)
};

/// QoS identity of one client session (docs/QOS.md).
struct SessionConfig {
  /// Admission tenant: the token-bucket and DRR-fairness key.  Empty =
  /// per-app tenancy (each app id is its own tenant), the legacy
  /// behaviour.
  std::string tenant;

  /// Priority class for every request submitted on this session.
  qos::PriorityClass priority = qos::PriorityClass::kStandard;

  /// DRR weight of `tenant` within its class: a weight-3 tenant drains
  /// 3× the queued requests of a weight-1 tenant under saturation.
  /// Requires a named tenant when != 1.  0 is invalid.
  std::uint32_t tenant_weight = 1;

  /// Response-time target; responses above it mark the outcome
  /// deadline_missed (accounting only — no scheduling effect).  0 = none.
  sim::SimDuration deadline = 0;

  /// Operations the offloaded code attempts against the RAC on every
  /// request in addition to its honest workflow — how adversary profiles
  /// model permission-probing apps (docs/RAC.md).  Forbidden entries
  /// accrue violations until the tenant is blocked.
  std::vector<Operation> probe_ops;
};

class Platform;
class InvariantOracle;

/// Move-only handle for one client's request stream on a Platform.
/// Obtained from Platform::open_session(); submit() schedules requests
/// under this session's QoS identity, result() reads finished outcomes,
/// close() drains the run and returns this session's outcomes.  The
/// handle does not own the run: closing one session leaves others open.
class Session {
 public:
  Session() = default;
  Session(Session&& other) noexcept;
  Session& operator=(Session&& other) noexcept;
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Schedules one request under this session's tenant/class/deadline.
  /// Sequences must stay dense and unique across *all* sessions of a run.
  void submit(const workloads::OffloadRequest& request);

  /// The finished outcome for `sequence`, or nullptr while in flight.
  [[nodiscard]] const RequestOutcome* result(std::uint64_t sequence) const;

  /// Drains the event queue and returns the outcomes of every request
  /// submitted through *this* session, in submission order.  The handle
  /// is closed afterwards; submit() on it is invalid.
  std::vector<RequestOutcome> close();

  [[nodiscard]] bool open() const { return platform_ != nullptr; }
  [[nodiscard]] const SessionConfig& config() const;

 private:
  friend class Platform;
  Session(Platform* platform, std::uint64_t id)
      : platform_(platform), id_(id) {}

  Platform* platform_ = nullptr;
  std::uint64_t id_ = 0;
};

class Platform {
 public:
  explicit Platform(PlatformConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] const PlatformConfig& config() const { return config_; }
  [[nodiscard]] CloudServer& server() { return *server_; }

  /// Replays a request stream to completion; outcomes are indexed by
  /// request sequence.  Tasks are actually executed (real kernels) to
  /// obtain their work units.
  std::vector<RequestOutcome> run(
      const std::vector<workloads::OffloadRequest>& stream);

  // -- Session API (docs/QOS.md) ---------------------------------------
  //
  // run() is sugar over one Session.  A closed-loop driver opens one
  // session per traffic class, installs a completion observer, and
  // submits follow-up requests *from inside the observer* — the arrivals
  // land on the same event queue, so a dynamically generated workload is
  // exactly as deterministic as a replayed one.

  /// Opens a client session carrying the given QoS identity.  The first
  /// session opened after the previous run finished resets per-run state
  /// (outcomes, live sessions, accept queues) and provisions the warm
  /// pool / fault pump; further sessions join the active run.
  /// kInvalidConfig: tenant_weight of 0, or a non-default weight without
  /// a named tenant.
  Result<Session> open_session(SessionConfig config = {});

  /// The finished outcome for `sequence` (any session), or nullptr.
  [[nodiscard]] const RequestOutcome* result(std::uint64_t sequence) const;

  /// Whether `sequence` may still be submitted into the current run: no
  /// session of the run used it yet, and it is below kLifecycleTrackBase
  /// (session trace tracks are sequence + 1).  O(1); how a front door
  /// refuses a hostile sequence before Session::submit.
  [[nodiscard]] bool sequence_free(std::uint64_t sequence) const;

  /// Observer invoked with each finished outcome (completed, rejected,
  /// stranded or executed locally) — the closed-loop feedback path.
  /// Empty uninstalls.  Stranded outcomes reach it after the event queue
  /// has drained; the drain runs the queue again for any follow-up the
  /// observer submits, so a device whose session stranded still issues
  /// its next request.
  void set_completion_observer(
      std::function<void(const RequestOutcome&)> observer) {
    completion_observer_ = std::move(observer);
  }

  /// Admission backpressure in [0, 1] (0 when admission is disabled).
  [[nodiscard]] double backpressure() const {
    return admission_ ? admission_->backpressure() : 0.0;
  }

  /// The admission controller, or nullptr when disabled.
  [[nodiscard]] AdmissionController* admission() { return admission_.get(); }
  [[nodiscard]] const AdmissionController* admission() const {
    return admission_.get();
  }

  /// Sessions waiting in the bounded accept queues right now.
  [[nodiscard]] std::size_t accept_queue_depth() const {
    return admission_ ? admission_->queue_depth() : 0;
  }

  /// Provisions one environment on an otherwise idle platform and reports
  /// the Table I statistics.  Usable once, on a fresh Platform.
  ProvisionStats measure_provision();

  /// Device-side radio profile implied by the configured link.
  [[nodiscard]] device::RadioProfile radio_profile() const;

  /// The environments provisioned so far (reclaimed ones included).
  [[nodiscard]] std::size_t env_count() const { return env_table_.size(); }

  /// Integral of committed environment memory over simulated time so far
  /// (byte·seconds) — the resource cost a warm pool pays (§III-B).
  [[nodiscard]] double memory_time_byte_seconds() const {
    return env_table_.memory_byte_seconds(server_->simulator().now());
  }

  /// The installed fault injector, or nullptr when the plan is empty.
  [[nodiscard]] sim::FaultInjector* fault_injector() {
    return faults_.get();
  }
  [[nodiscard]] const sim::FaultInjector* fault_injector() const {
    return faults_.get();
  }

  /// The record of the invariant oracle's checks (one per simulator event
  /// while the oracle is armed: a fault plan, or force_invariants).
  [[nodiscard]] const InvariantChecker& invariants() const {
    return invariants_;
  }
  [[nodiscard]] InvariantChecker& invariants() { return invariants_; }

  /// Sessions currently in flight (bound or connecting).
  [[nodiscard]] std::size_t live_session_count() const { return live_count_; }

  /// The platform-wide metrics registry (docs/OBSERVABILITY.md). Always
  /// live: every component is wired at construction and instrument
  /// updates are cheap enough for benchmark builds.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// Session tracing (disabled by default; call trace().enable() before
  /// run() to record spans and export Chrome trace-event JSON).
  [[nodiscard]] obs::TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const obs::TraceRecorder& trace() const { return trace_; }

  // -- Elastic capacity (docs/ELASTIC.md) ------------------------------

  /// The environment table: the one record and lifecycle state
  /// (cold → booting → warm_idle ⇄ leased → draining → reclaimed) of
  /// every environment, until it is reclaimed and no session is bound.
  [[nodiscard]] const EnvTable& env_table() const { return env_table_; }

  /// Integral of warm-idle memory over simulated time (byte·seconds) —
  /// the idle-capacity cost the §III-B frontier charts.
  [[nodiscard]] double idle_byte_seconds() const {
    return env_table_.idle_byte_seconds(server_->simulator().now());
  }

  /// Warm-idle pool environments available for immediate lease.
  [[nodiscard]] std::uint32_t warm_idle_count() const;

  /// Drains up to `count` warm-idle pool environments; returns how many
  /// drains began.  Draining capacity stops leasing and is reclaimed
  /// once in-flight work finishes.
  std::uint32_t elastic_retire_warm(std::uint32_t count);

  /// Content-addressed store of every lower layer the platform's CACs
  /// stack on.  Layers are pinned here by digest (deduplicated), so the
  /// shared base survives any individual environment's drain — only the
  /// private top layer is burned (docs/ELASTIC.md).
  [[nodiscard]] const container::LayerStore& layer_store() const {
    return layer_store_;
  }

 private:
  friend class Session;
  friend class InvariantOracle;
  /// Defined only by tests (forced illegal transitions, planted invariant
  /// violations, the oracle's per-event full sweep).
  friend struct PlatformTestPeer;

  struct SessionState;
  struct SessionScope;  ///< RAII: marks the session a handler acts for

  /// A session record's handle: its slot in sessions_ and the slot's
  /// generation when the handle was made (the EventQueue idiom).  It
  /// stops resolving once a crash, a RAC sweep or the session's ending
  /// bumps that generation, so a reused slot never answers for it.
  struct SessionRef {
    std::uint32_t slot = sim::kNoSlot;
    std::uint32_t gen = 0;
  };
  /// What Platform keeps per slot of sessions_, outside the cells.
  struct SessionSlot {
    std::uint32_t gen = 0;  ///< the generation a handle captures
    bool held = false;      ///< the slot holds a record
  };

  /// What every session of one workload kind shares, resolved once per
  /// platform instead of per session.
  struct KindData {
    android::MobileApp app;
    std::uint32_t binder_calls_per_task = 0;
    std::string code_ref;  ///< the app's warehouse code reference
  };

  /// Session-path instruments, resolved on first use (the warm_hits_
  /// idiom below), so a run exports exactly the instruments it touched
  /// and no update pays a name lookup.
  struct SessionMetrics {
    obs::Counter* offered = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* recovered = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Histogram* response_ms = nullptr;
    obs::Histogram* accepted_response_ms = nullptr;
    obs::Histogram* prep_provision_ms = nullptr;
    obs::Histogram* prep_reuse_ms = nullptr;
    std::array<obs::Counter*, qos::kClassCount> qos_offered{};
    std::array<obs::Counter*, qos::kClassCount> qos_completed{};
    std::array<obs::Counter*, qos::kClassCount> qos_rejected{};
    std::array<obs::Histogram*, qos::kClassCount> qos_response_ms{};
    std::array<obs::Counter*, kRejectReasonCount> rejected_by_reason{};
    /// net.* handles every session's connection counts into.
    std::optional<net::Connection::Metrics> net;
  };

  /// One open Session handle's server-side record.
  struct Stream {
    SessionConfig config;
    std::vector<std::uint64_t> sequences;  ///< submission order
    bool open = true;
  };

  EnvRecord& provision_env(EnvKey binding_key, sim::SimTime now);
  /// Start the VM / container; false when provisioning failed.
  bool provision_vm(EnvRecord& env);
  bool provision_cac(EnvRecord& env);
  /// The CAC template of this platform's OS profile, built (and its
  /// lower layers pinned) on first use.
  const CacTemplate& cac_template();
  /// What an environment continuation's captured id resolves to: the
  /// record while it is held and live, else nullptr.
  [[nodiscard]] EnvRecord* live_env(EnvId id) {
    EnvRecord* env = env_table_.find(id);
    return env != nullptr && env->live() ? env : nullptr;
  }
  void env_ready(EnvRecord& env);
  void schedule_reclaim(EnvRecord& env);
  /// Stops an environment for good — shutdown, or a crash when `crashed`.
  void teardown_env(EnvRecord& env, bool crashed);
  /// Erases a reclaimed record no session is bound to.
  void prune(EnvRecord& env) {
    if (!env.live() && env.inflight == 0) env_table_.erase(env.id);
  }

  // Elastic capacity machinery (docs/ELASTIC.md).
  void begin_drain(EnvRecord& env);
  void finish_drain(EnvRecord& env);
  void prewarm_env();
  /// Boots up to `count` fresh pool environments (respects the elastic
  /// memory budget); returns how many were actually started.
  std::uint32_t elastic_prewarm(std::uint32_t count);
  void elastic_tick();
  void arm_elastic_tick();
  [[nodiscard]] std::uint64_t default_env_memory() const;

  // Session-handle plumbing.
  void reset_run();
  void drain_run();
  void submit_to_stream(std::uint64_t stream_id,
                        const workloads::OffloadRequest& request);
  std::vector<RequestOutcome> close_stream(std::uint64_t stream_id);
  [[nodiscard]] const SessionConfig& stream_config(
      std::uint64_t stream_id) const;
  /// Builds the record of the session whose request waits in
  /// outcomes_[sequence], under the QoS identity of `stream_id`: called
  /// when the request arrives, so only in-flight sessions hold one.
  SessionState& make_session(std::uint64_t stream_id, std::uint64_t sequence);
  /// The handle of `s`, and what a handle resolves to: the record while
  /// its generation holds, else nullptr.  Defined in platform_state.hpp.
  [[nodiscard]] SessionRef session_ref(const SessionState& s) const;
  [[nodiscard]] SessionState* find_session(SessionRef ref);
  /// Frees the record's slot and bumps its generation.
  void release_session(std::uint32_t slot);
  /// Releases every record still held (a run's leftovers, or the
  /// platform's teardown) and empties the live list.
  void release_all_sessions();

  /// A continuation that runs `Step(s, args...)` unless the session's
  /// generation moved on (it ended, crashed or was swept) since it was
  /// made.
  template <auto Step, typename... Args>
  auto guarded(const SessionState& s, Args... args);

  void on_arrival(SessionState& s);
  /// The ending of a session the adaptive decision ran on the device.
  void finish_locally(SessionState& s, sim::SimDuration local);
  /// The live list: appends `s`, or unlinks it in O(1) (a no-op when it
  /// is not linked), keeping the arrival order the sweeps walk.
  void link_live(SessionState& s);
  void unlink_live(SessionState& s);
  /// Calls `f(SessionState&)` on every live session in arrival order;
  /// `f` must not end sessions (collect their slots first).  Defined in
  /// platform_state.hpp.
  template <typename F>
  void for_each_live(F&& f);
  void attempt_connect(SessionState& s);
  void on_connected(SessionState& s);
  void dispatch(SessionState& s, sim::SimDuration lead_cost);
  /// Binds the session to the dispatcher's pick (0 or no longer leasable:
  /// a pool claim or a fresh environment) once the lead cost elapsed.
  void on_dispatched(SessionState& s, EnvId picked);
  void on_env_ready(SessionState& s);
  void on_uploaded(SessionState& s);
  void on_computed(SessionState& s);
  void complete(SessionState& s);

  // Mobility machinery (docs/LOADGEN.md).
  void arm_mobility_pump();
  void apply_handoff(const HandoffEvent& event);
  /// How long a radio operation starting now must wait for connectivity
  /// (0 when the link is attached).
  [[nodiscard]] sim::SimDuration mobility_stall(sim::SimTime now) const {
    return link_down_until_ > now ? link_down_until_ - now : 0;
  }
  /// Marks the session as interrupted-and-resumed (metrics + trace, once
  /// per session).
  void note_resumption(SessionState& s);

  // Fault-injection machinery.
  void crash_env(EnvRecord& env);
  void recover_env(std::uint32_t env_id);
  /// Block-onset sweep (docs/RAC.md): rejects every live session of a
  /// just-blocked tenant so it consumes zero container time past this
  /// instant (invariant #14).
  void on_tenant_blocked(const std::string& tenant, sim::SimTime now);
  void reject_session(SessionState& s, RejectReason reason);
  /// Fills the outcome fields every ending fills the same way into the
  /// session's slot, outcomes_[sequence], and returns the slot; each
  /// path sets the rest in place.  Valid until the next submit.
  RequestOutcome& outcome_of(const SessionState& s);
  /// The one ending of every session — completed, rejected, stranded or
  /// run locally: marks the outcome its path filled in as recorded,
  /// unbinds its environment, returns its slots, ends its spans, feeds
  /// the adaptive decision history and releases its record; then, unless
  /// it was stranded, starts queued work; and last it notifies the
  /// completion observer.  A stranded session ends after the queue
  /// drained, so drain_run runs the queue again for what the observer
  /// submits.
  void finish_session(SessionState& s);
  /// Touch point: tells the invariant oracle, when armed, that a
  /// handler changed `s` (docs/FAULTS.md).
  void touched(const SessionState& s);

  // Admission control.
  void maybe_start_queued();

  // Observability: one phase span open per session at a time.
  void begin_phase(SessionState& s, const char* name);
  void end_phase(SessionState& s);
  void on_fault_fired(sim::FaultKind kind, sim::SimTime when);

  [[nodiscard]] double cpu_factor() const;
  [[nodiscard]] sim::SimDuration compute_io_time(const EnvRecord& env,
                                                 std::uint64_t bytes,
                                                 std::uint32_t ops) const;

  PlatformConfig config_;
  // Declared before the engine so components holding cached instrument
  // handles are destroyed first.
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  SessionRef active_session_;  ///< set while a handler runs
  /// One record per in-flight session, owned here alone (docs/PERF.md
  /// "Arenas"): built when its request arrives, released when it ends;
  /// a submitted request waits in its outcomes_ slot until then.
  sim::SlabArena<SessionState, 256> sessions_;
  std::vector<SessionSlot> session_slots_;  ///< parallel to sessions_
  std::unique_ptr<CloudServer> server_;
  std::unique_ptr<net::Link> link_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<sim::FaultInjector> faults_;
  /// Parks sessions in its class queues by slot (the id the QosScheduler
  /// echoes back on pop).
  std::unique_ptr<AdmissionController> admission_;
  std::function<void(const RequestOutcome&)> completion_observer_;
  InvariantChecker invariants_;
  /// Sessions in flight, in arrival order: an intrusive list of slots
  /// through SessionState::live_next.
  std::uint32_t live_head_ = sim::kNoSlot;
  std::uint32_t live_tail_ = sim::kNoSlot;
  std::size_t live_count_ = 0;
  sim::Rng rng_;
  /// After server_: a CAC hands its container back when destroyed.
  EnvTable env_table_;
  /// Armed with a fault plan or force_invariants; destroyed before the
  /// table and warehouse it attaches its touch list to.
  std::unique_ptr<InvariantOracle> oracle_;
  /// Per-kind app data, resolved on a kind's first arrival.
  std::array<std::optional<KindData>, workloads::kKindCount> kinds_;
  std::vector<device::MobileDevice> devices_;
  /// One slot per submitted sequence: the parked request from submit to
  /// arrival, then the outcome its ending fills in place.
  std::vector<RequestOutcome> outcomes_;
  enum class OutcomeState : std::uint8_t { kFree, kSubmitted, kDone };
  std::vector<OutcomeState> outcome_state_;  ///< parallel to outcomes_
  std::unique_ptr<elastic::PoolController> pool_controller_;
  container::LayerStore layer_store_;
  /// The booted image every CAC is cloned from.  The profile is fixed by
  /// config_, so one template serves the platform's whole lifetime.  It
  /// is destroyed before env_table_: a CAC's teardown does not read it.
  std::optional<CacTemplate> cac_template_;
  std::uint32_t pool_seq_ = 0;       ///< keys pool:<n> environments
  bool elastic_tick_armed_ = false;
  // elastic.* instruments touched on the session path, created on first
  // use so a run that never touches them exports none.
  obs::Counter* warm_hits_ = nullptr;
  obs::Counter* cold_boots_ = nullptr;
  obs::Gauge* warm_hit_ratio_ = nullptr;
  obs::Histogram* prewarm_lead_ms_ = nullptr;
  // Set every elastic tick; created on the first.
  obs::Gauge* elastic_target_ = nullptr;
  obs::Gauge* elastic_forecast_rate_ = nullptr;
  obs::Gauge* elastic_idle_byte_seconds_ = nullptr;
  // Provision and drain instruments, created on first use likewise.
  obs::Counter* env_provisioned_ = nullptr;
  obs::Histogram* env_provision_ms_ = nullptr;
  obs::Counter* drained_ = nullptr;
  obs::Counter* reclaimed_private_bytes_ = nullptr;
  SessionMetrics session_metrics_;
  std::map<std::uint64_t, Stream> streams_;  ///< by Session handle id
  std::uint64_t next_stream_id_ = 1;
  bool run_active_ = false;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  /// Radio the platform was constructed with; each run's mobility plan
  /// replays from this base configuration.
  net::LinkConfig base_link_;
  /// Connectivity returns at this virtual time (0 = link attached).
  sim::SimTime link_down_until_ = 0;

  const KindData& kind_data(workloads::Kind kind);
  const device::MobileDevice& device_for(std::uint32_t device_id);

  /// Per-app offloading-decision history (adaptive mode).
  struct DecisionState {
    double ewma_remote_s = 0;  ///< observed offload responses
    double ewma_local_s = 0;   ///< known local execution times
    std::uint32_t samples = 0;
  };
  std::map<std::string, DecisionState> decisions_;
};

}  // namespace rattrap::core
