#include "core/platform.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "android/image_profile.hpp"
#include "core/oracle.hpp"
#include "core/platform_state.hpp"

namespace rattrap::core {

const char* to_string(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kVmCloud:
      return "VM";
    case PlatformKind::kRattrapWithoutOpt:
      return "Rattrap(W/O)";
    case PlatformKind::kRattrap:
      return "Rattrap";
  }
  return "?";
}

PlatformConfig make_config(PlatformKind kind, net::LinkConfig link,
                           std::uint64_t seed) {
  PlatformConfig config;
  config.kind = kind;
  config.link = std::move(link);
  config.seed = seed;
  switch (kind) {
    case PlatformKind::kVmCloud:
      config.container_backing = false;
      config.customized_os = false;
      config.shared_resource_layer = false;
      config.sharing_offload_io = false;
      config.code_cache = false;
      config.dispatcher_affinity = false;
      break;
    case PlatformKind::kRattrapWithoutOpt:
      config.container_backing = true;
      config.customized_os = false;
      config.shared_resource_layer = false;
      config.sharing_offload_io = false;
      config.code_cache = false;
      config.dispatcher_affinity = false;
      break;
    case PlatformKind::kRattrap:
      break;  // all defaults on
  }
  return config;
}

/// Track 0 carries platform-wide instants (faults outside any session).
constexpr std::uint64_t kPlatformTrack = 0;

namespace {
/// Affinity-reroute backlog tolerance by class: interactive sessions give
/// up the code-cache reroute sooner than batch, which will happily wait
/// behind a longer queue to save the code push (docs/QOS.md).  Standard
/// keeps the pre-QoS 600 ms default.
sim::SimDuration class_backlog_threshold(qos::PriorityClass klass) {
  switch (klass) {
    case qos::PriorityClass::kInteractive:
      return sim::from_millis(300);
    case qos::PriorityClass::kStandard:
      return sim::from_millis(600);
    case qos::PriorityClass::kBatch:
      return sim::from_millis(1200);
  }
  return sim::from_millis(600);
}

Calibration calibration_of(const PlatformConfig& config) {
  Calibration calibration =
      config.calibration ? *config.calibration : default_calibration();
  if (config.tmpfs_capacity_override > 0) {
    calibration.tmpfs_capacity = config.tmpfs_capacity_override;
  }
  return calibration;
}
}  // namespace

// Marks the session a handler (and everything it synchronously calls
// into — link, tmpfs, warehouse, kernel) acts for, so a fault fired deep
// inside a component annotates the right span. Scopes nest because
// handlers invoke each other directly.
struct Platform::SessionScope {
  SessionScope(Platform& platform, SessionState& session)
      : platform_(platform),
        prev_session_(platform.active_session_),
        prev_span_(platform.trace_.active()) {
    platform_.active_session_ = platform.session_ref(session);
    platform_.trace_.set_active(session.span_phase != obs::kNoSpan
                                    ? session.span_phase
                                    : session.span_session);
  }
  ~SessionScope() {
    platform_.active_session_ = prev_session_;
    platform_.trace_.set_active(prev_span_);
  }
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  Platform& platform_;
  SessionRef prev_session_;
  obs::SpanId prev_span_;
};

void Platform::begin_phase(SessionState& s, const char* name) {
  if (!trace_.enabled()) return;
  if (s.span_phase != obs::kNoSpan) end_phase(s);
  s.span_phase = trace_.begin(s.request.sequence + 1, name, "phase",
                              server_->simulator().now());
  trace_.set_active(s.span_phase);
}

void Platform::end_phase(SessionState& s) {
  if (s.span_phase == obs::kNoSpan) return;
  trace_.end(s.span_phase, server_->simulator().now());
  s.span_phase = obs::kNoSpan;
}

void Platform::on_fault_fired(sim::FaultKind kind, sim::SimTime when) {
  metrics_.counter(std::string("faults.fired.") + sim::to_string(kind))
      .inc();
  if (!trace_.enabled()) return;
  const std::string name = std::string("fault:") + sim::to_string(kind);
  // The handler's session, unless it ended since the handler began.
  SessionState* s = find_session(active_session_);
  if (s != nullptr) {
    const std::uint64_t hits = ++s->fault_hits[kind];
    const std::string key = std::string("fault.") + sim::to_string(kind);
    trace_.annotate(s->span_phase, key, hits);
    trace_.annotate(s->span_session, key, hits);
    trace_.instant(s->request.sequence + 1, name, "fault", when);
  } else {
    // No session context (e.g. a pump-delivered container crash).
    trace_.instant(kPlatformTrack, name, "fault", when);
  }
}

// ---------------------------------------------------------------------

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)),
      server_(std::make_unique<CloudServer>(
          calibration_of(config_), config_.customized_os
                                       ? android::customized_layer()
                                       : android::container_stock_layer())),
      rng_(config_.seed),
      capacity_(config_, *server_, metrics_, trace_, live_count_,
                [this](const EnvRecord& env) { sweep_crashed(env); }) {
  link_ = std::make_unique<net::Link>(config_.link);
  dispatcher_ = std::make_unique<Dispatcher>(capacity_.table(),
                                             server_->warehouse(),
                                             config_.dispatcher_affinity);
  server_->install_metrics(&metrics_);
  link_->set_metrics(&metrics_);
  dispatcher_->set_metrics(&metrics_);
  // The access controller becomes a stateful defense layer (docs/RAC.md):
  // the block hook sweeps the offender's live sessions so a blocked
  // tenant consumes zero container time after block onset (invariant 14).
  server_->access().configure(config_.access);
  server_->access().on_block(
      [this](const std::string& tenant, sim::SimTime now) {
        on_tenant_blocked(tenant, now);
      });
  server_->access().on_unblock(
      [this](const std::string& tenant, sim::SimTime now) {
        if (oracle_ != nullptr) oracle_->touch_tenant(tenant);
        const obs::SpanId mark =
            trace_.instant(kPlatformTrack, "rac_unblock", "rac", now);
        trace_.annotate(mark, "tenant", tenant);
      });
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(
        config_.admission, server_->monitor(),
        server_->calibration().server_cores);
    admission_->set_metrics(&metrics_);
  }
  if (!config_.fault_plan.empty()) {
    faults_ = std::make_unique<sim::FaultInjector>(config_.fault_plan,
                                                   config_.seed);
    faults_->set_clock(
        [this]() { return server_->simulator().now(); });
    link_->set_fault_injector(faults_.get());
    server_->install_fault_injector(faults_.get());
    faults_->set_fire_observer(
        [this](sim::FaultKind kind, sim::SimTime when) {
          on_fault_fired(kind, when);
        });
    server_->monitor().set_crash_handler(
        [this](std::uint32_t env_id) { recover_env(env_id); });
  }
  // The invariant oracle runs with any fault plan, and on fault-free runs
  // when forced (the property batteries, experiments).
  if (config_.check_invariants &&
      (faults_ != nullptr || config_.force_invariants)) {
    oracle_ = std::make_unique<InvariantOracle>(*this);
    server_->simulator().set_post_event_hook(
        [this]() { oracle_->after_event(); });
  }
}

Platform::~Platform() { release_all_sessions(); }

device::RadioProfile Platform::radio_profile() const {
  if (link_->name() == "3G") return device::radio_3g();
  if (link_->name() == "4G") return device::radio_4g();
  return device::wifi_radio();
}

const Platform::KindData& Platform::kind_data(workloads::Kind kind) {
  std::optional<KindData>& slot = kinds_[static_cast<std::size_t>(kind)];
  if (!slot) {
    android::MobileApp app = android::MobileApp::for_workload(kind);
    std::string code_ref = code_reference(app.app_id());
    slot.emplace(KindData{
        std::move(app),
        workloads::make_workload(kind)->app().binder_calls_per_task,
        std::move(code_ref)});
  }
  return *slot;
}

const device::MobileDevice& Platform::device_for(std::uint32_t device_id) {
  while (devices_.size() <= device_id) {
    device::DeviceConfig dc;
    dc.id = static_cast<std::uint32_t>(devices_.size());
    devices_.emplace_back(dc);
  }
  return devices_[device_id];
}

double Platform::cpu_factor() const {
  const Calibration& cal = server_->calibration();
  return config_.container_backing ? cal.container_cpu_factor
                                   : cal.vm_cpu_factor;
}

sim::SimDuration Platform::compute_io_time(const EnvRecord& env,
                                           std::uint64_t bytes,
                                           std::uint32_t ops) const {
  if (bytes == 0 && ops == 0) return 0;
  const Calibration& cal = server_->calibration();
  if (config_.sharing_offload_io) {
    // Sharing Offloading I/O: reads come from the shared tmpfs; a file
    // operation is a page-cache hit (~20 µs of VFS work).
    return server_->shared_layer().io_time(bytes) +
           static_cast<sim::SimDuration>(ops) * 20;
  }
  // Disk-backed offloading I/O: each discrete file operation pays a seek
  // (VirusScan's many small files are why it is the most I/O-bound
  // workload, §III-C), plus the streaming transfer.
  const sim::SimDuration per_op =
      sim::from_millis(cal.disk.avg_seek_ms + cal.disk.rotational_ms);
  const sim::SimDuration native =
      server_->disk().service_time(bytes, /*sequential=*/true) +
      static_cast<sim::SimDuration>(ops) * per_op;
  if (env.is_vm()) {
    return static_cast<sim::SimDuration>(static_cast<double>(native) /
                                         cal.vm_io_factor);
  }
  return native;  // container: native disk I/O
}

// ---------------------------------------------------------------------
// SessionState flow

std::vector<RequestOutcome> Platform::run(
    const std::vector<workloads::OffloadRequest>& stream) {
  Result<Session> session = open_session();
  assert(session.ok() && "the default session config is always valid");
  for (const auto& request : stream) session->submit(request);
  return session->close();
}

// -- Session handles (docs/QOS.md) ------------------------------------

Session::Session(Session&& other) noexcept
    : platform_(other.platform_), id_(other.id_) {
  other.platform_ = nullptr;
  other.id_ = 0;
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    if (platform_ != nullptr) platform_->end_stream(id_);
    platform_ = other.platform_;
    id_ = other.id_;
    other.platform_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

Session::~Session() {
  if (platform_ != nullptr) platform_->end_stream(id_);
}

void Session::submit(const workloads::OffloadRequest& request) {
  assert(platform_ != nullptr && "submit on a closed Session");
  platform_->submit_to_stream(id_, request);
}

const RequestOutcome* Session::result(std::uint64_t sequence) const {
  assert(platform_ != nullptr && "result on a closed Session");
  return platform_->result(sequence);
}

std::vector<RequestOutcome> Session::close() {
  assert(platform_ != nullptr && "close on a closed Session");
  // The handle stays live through the drain: end_stream() runs the
  // shared event queue dry, and a completion observer may legitimately
  // submit follow-ups into this very session while that happens
  // (closed-loop load does exactly this).  Only once the drain finishes
  // does the handle detach.
  const Platform::Stream* stream = platform_->end_stream(id_);
  platform_ = nullptr;
  return stream != nullptr ? stream->outcomes : std::vector<RequestOutcome>{};
}

std::vector<RequestOutcome> Session::take() {
  assert(platform_ != nullptr && "take on a closed Session");
  Platform::Stream* stream = platform_->end_stream(id_);
  platform_ = nullptr;
  if (stream == nullptr) return {};
  // The buffer itself changes hands; an element-wise move would build a
  // second one.
  stream->taken = true;
  return std::exchange(stream->outcomes, {});
}

const SessionConfig& Session::config() const {
  assert(platform_ != nullptr && "config on a closed Session");
  return platform_->stream_config(id_);
}

Result<Session> Platform::open_session(SessionConfig config) {
  if (config.tenant_weight == 0 ||
      (config.tenant_weight != 1 && config.tenant.empty())) {
    // A weight needs a named tenant to attach to, and 0 would stall DRR.
    return RejectReason::kInvalidConfig;
  }
  // Front-door permission check (docs/RAC.md): a blocked tenant cannot
  // even open a stream.  Per-app tenancy (empty tenant) is gated per
  // request at arrival instead, where the app id is known.
  if (!config.tenant.empty() &&
      server_->access().allow_open(config.tenant,
                                   server_->simulator().now()) !=
          AccessDeny::kNone) {
    return RejectReason::kAccessDenied;
  }
  if (!run_active_) reset_run();
  const std::uint64_t id = next_stream_id_++;
  Stream stream;
  stream.id = id;
  stream.config = std::move(config);
  if (admission_ != nullptr && stream.config.tenant_weight != 1) {
    admission_->set_tenant_weight(stream.config.tenant,
                                  stream.config.tenant_weight);
  }
  streams_.emplace(id, std::move(stream));
  return Session(this, id);
}

const SessionConfig& Platform::stream_config(
    std::uint64_t stream_id) const {
  const auto it = streams_.find(stream_id);
  assert(it != streams_.end());
  return it->second.config;
}

const RequestOutcome* Platform::result(std::uint64_t sequence) const {
  if (sequence >= outcome_index_.size()) return nullptr;
  const OutcomeRef& ref = outcome_index_[sequence];
  if (!ref.done || ref.stream->taken) return nullptr;
  return &ref.stream->outcomes[ref.position];
}

bool Platform::sequence_free(std::uint64_t sequence) const {
  return sequence < kLifecycleTrackBase &&
         sequence < submitted_ + kMaxSequenceLead &&
         (sequence >= outcome_index_.size() ||
          outcome_index_[sequence].stream == nullptr);
}

Platform::Stream* Platform::end_stream(std::uint64_t stream_id) {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end() || !it->second.open) return nullptr;
  drain_run();
  it->second.open = false;
  bool any_open = false;
  for (const auto& [id, stream] : streams_) {
    (void)id;
    if (stream.open) any_open = true;
  }
  if (!any_open) run_active_ = false;
  return &it->second;
}

// ---------------------------------------------------------------------

void Platform::reset_run() {
  outcome_index_.clear();
  submitted_ = 0;
  completed_ = 0;
  release_all_sessions();
  if (admission_ != nullptr) admission_->scheduler().clear();
  streams_.clear();
  run_active_ = true;
  capacity_.begin_run();
  arm_mobility_pump();
  if (faults_) capacity_.arm_crash_pump(*faults_);
}

void Platform::submit_to_stream(std::uint64_t stream_id,
                                const workloads::OffloadRequest& request) {
  const auto stream_it = streams_.find(stream_id);
  assert(stream_it != streams_.end() && stream_it->second.open &&
         "submit on an unknown or closed session");
  Stream& stream = stream_it->second;
  const std::uint64_t sequence = request.sequence;
  assert(sequence_free(sequence) && "sequences are unique within a run");
  sim::Simulator& simulator = server_->simulator();
  if (outcome_index_.size() <= sequence) outcome_index_.resize(sequence + 1);
  const auto position = static_cast<std::uint32_t>(stream.outcomes.size());
  outcome_index_[sequence] = OutcomeRef{&stream, position, false};
  ++submitted_;
  SessionMetrics& sm = session_metrics_;
  metrics_.resolve(sm.offered, "sessions.offered").inc();
  const qos::PriorityClass klass = stream.config.priority;
  metrics_.resolve(sm.qos_offered[qos::class_index(klass)], "qos.offered.",
          qos::to_string(klass))
      .inc();
  // The request waits in its outcome slot; its session record is built
  // when it arrives, so the records live only while sessions are in
  // flight, however far ahead the schedule was submitted.
  stream.outcomes.emplace_back().request = request;
  simulator.schedule_at(std::max(request.arrival, simulator.now()),
                        [this, stream = &stream, position]() {
                          on_arrival(make_session(*stream, position));
                        });
}

Platform::SessionState& Platform::make_session(Stream& stream,
                                               std::uint32_t position) {
  const SessionConfig& config = stream.config;
  const auto [session, slot] = sessions_.create();
  if (slot == session_slots_.size()) session_slots_.emplace_back();
  session_slots_[slot].held = true;
  session->slot = slot;
  // Copied out of the slot before the arrival runs: a synchronous reject
  // reaches the completion observer, whose submits may grow the stream's
  // outcomes.
  session->request = stream.outcomes[position].request;
  const std::uint64_t sequence = session->request.sequence;
  session->kind = session->request.task.kind;
  session->app = &kind_data(session->kind);
  // The QoS identity rides on the session the request was submitted
  // through; an empty tenant falls back to per-app tenancy (the legacy
  // token-bucket key).
  session->stream = &stream;
  session->position = position;
  session->klass = config.priority;
  session->deadline = config.deadline;
  session->tenant = config.tenant.empty() ? session->app_id() : config.tenant;
  // Execute the real kernel; work units drive the simulated times.
  // Identical tasks replayed across platforms (§VI-D record/replay)
  // share one execution through a process-wide memo.
  session->executed = execute_task_cached(session->request.task);
  // The substream depends on the seed and sequence only, so building
  // the connection at arrival draws what building it at submit did.
  session->conn.emplace(*link_, rng_.fork(sequence + 1));
  SessionMetrics& sm = session_metrics_;
  if (!sm.net) sm.net = net::Connection::resolve_metrics(metrics_);
  session->conn->set_metrics(*sm.net);
  return *session;
}

void Platform::release_session(std::uint32_t slot) {
  sessions_.destroy(slot);
  SessionSlot& meta = session_slots_[slot];
  ++meta.gen;
  meta.held = false;
}

void Platform::release_all_sessions() {
  for (std::uint32_t slot = 0; slot < session_slots_.size(); ++slot) {
    if (session_slots_[slot].held) release_session(slot);
  }
  live_head_ = live_tail_ = sim::kNoSlot;
  live_count_ = 0;
}

void Platform::drain_run() {
  sim::Simulator& simulator = server_->simulator();
  simulator.run();
  // With recovery disabled (or budgets exhausted mid-flight) sessions
  // can strand on a dead environment; the event queue drains with their
  // outcomes unrecorded. Mark them rejected so the caller sees every
  // request accounted for — and so the invariant report is the only
  // place a stranding hides.  Stranded sessions give back every slot
  // they held — the tenant's RAC in-flight quota slot, and a class-queue
  // or in-service slot — so later runs are not refused for work that is
  // no longer in flight.  Their outcomes reach the completion observer
  // like any other; while it submits follow-ups (a closed-loop device's
  // next request), the queue runs again.
  while (faults_ && live_head_ != sim::kNoSlot) {
    const std::size_t submitted = submitted_;
    while (live_head_ != sim::kNoSlot) {
      SessionState& s = sessions_.at(live_head_);
      metrics_.counter("sessions.stranded").inc();
      metrics_
          .counter(std::string("qos.stranded.") + qos::to_string(s.klass))
          .inc();
      trace_.annotate(s.span_session, "stranded", std::uint64_t{1});
      RequestOutcome& outcome = outcome_of(s);
      outcome.rejected = true;
      outcome.reject_reason = RejectReason::kStranded;
      outcome.stranded = true;
      finish_session(s);
    }
    if (submitted_ == submitted) break;
    simulator.run();
  }
  if (oracle_ != nullptr) oracle_->quiescent_sweep();
  trace_.close_open_spans(simulator.now());
  // Every submitted request ended.  Not outcome_index_.size(): another
  // open stream of the run may not have submitted its sequences yet.
  assert(completed_ == submitted_);
}

template <auto Step, typename... Args>
auto Platform::guarded(const SessionState& s, Args... args) {
  auto step = [this, ref = session_ref(s), args...]() {
    if (SessionState* live = find_session(ref)) (this->*Step)(*live, args...);
  };
  // Step is a template argument rather than a capture, which keeps the
  // event callback in InlineCallback's inline storage (no heap block).
  static_assert(sizeof(step) <= sim::InlineCallback::kInlineBytes);
  return step;
}

void Platform::on_arrival(SessionState& s) {
  if (trace_.enabled()) {
    s.span_session = trace_.begin(s.request.sequence + 1, "session",
                                   "session", server_->simulator().now());
    trace_.annotate(s.span_session, "app", s.app_id());
    trace_.annotate(s.span_session, "device",
                    static_cast<std::uint64_t>(s.request.device_id));
    trace_.annotate(s.span_session, "class", qos::to_string(s.klass));
    trace_.annotate(s.span_session, "tenant", s.tenant);
    trace_.annotate(
        s.span_session, "tenant_weight",
        static_cast<std::uint64_t>(s.stream->config.tenant_weight));
  }
  if (config_.adaptive_offloading) {
    DecisionState& history = decisions_[s.app_id()];
    constexpr std::uint32_t kExplore = 3;  // first offloads gather data
    if (history.samples >= kExplore &&
        history.ewma_remote_s >= history.ewma_local_s) {
      // Run locally: no traffic, no cloud involvement.
      const device::MobileDevice& dev = device_for(s.request.device_id);
      const sim::SimDuration local =
          dev.local_execution_time(s.kind, s.executed);
      server_->simulator().schedule_in(
          local, guarded<&Platform::finish_locally>(s, local));
      return;
    }
  }
  // RAC request gate (docs/RAC.md): a blocked tenant is refused before
  // it consumes any platform resource, and the in-flight quota clips a
  // flooding tenant ahead of the QoS queues.  Every kNone is paired with
  // release() in finish_session via rac_slot.
  const AccessDeny deny =
      server_->access().admit(s.tenant, server_->simulator().now());
  if (deny != AccessDeny::kNone) {
    reject_session(s, deny == AccessDeny::kQuota
                          ? RejectReason::kQuotaExceeded
                          : RejectReason::kAccessDenied);
    return;
  }
  s.rac_slot = true;
  capacity_.observe_arrival(s.klass);
  link_live(s);
  touched(s);
  attempt_connect(s);
}

void Platform::finish_locally(SessionState& s, sim::SimDuration local) {
  RequestOutcome& outcome = outcome_of(s);
  outcome.response = local;
  outcome.local_time = local;
  outcome.speedup = 1.0;  // executed locally by choice
  outcome.local_energy_mj =
      device_for(s.request.device_id)
          .local_energy_mj(s.kind, s.executed, radio_profile());
  outcome.offload_energy_mj = outcome.local_energy_mj;
  metrics_.counter("sessions.local").inc();
  metrics_.counter(std::string("qos.local.") + qos::to_string(s.klass)).inc();
  trace_.annotate(s.span_session, "local", std::uint64_t{1});
  finish_session(s);
}

void Platform::link_live(SessionState& s) {
  assert(!s.live);
  s.live = true;
  s.live_prev = live_tail_;
  (live_tail_ != sim::kNoSlot ? sessions_.at(live_tail_).live_next
                              : live_head_) = s.slot;
  live_tail_ = s.slot;
  ++live_count_;
}

void Platform::unlink_live(SessionState& s) {
  if (!s.live) return;
  s.live = false;
  --live_count_;
  (s.live_next != sim::kNoSlot ? sessions_.at(s.live_next).live_prev
                               : live_tail_) = s.live_prev;
  (s.live_prev != sim::kNoSlot ? sessions_.at(s.live_prev).live_next
                               : live_head_) = s.live_next;
}

void Platform::attempt_connect(SessionState& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, s);
  // Retries reuse the one "connect" span; it ends when a handshake lands.
  if (s.span_phase == obs::kNoSpan) begin_phase(s, "connect");
  const sim::SimDuration stall = link_->stall(simulator.now());
  if (stall > 0) {
    // Radio detached (handoff outage): the handshake cannot even start;
    // the device re-attempts the instant the new radio attaches.  A
    // session whose connection the outage cut mid-retry counts as
    // resumed; a request merely *arriving* during the gap just waits.
    if (s.connect_attempts > 0) note_resumption(s);
    s.phases.network_connection += stall;
    simulator.schedule_in(stall, guarded<&Platform::attempt_connect>(s));
    return;
  }
  ++s.connect_attempts;
  trace_.annotate(s.span_phase, "attempts",
                  static_cast<std::uint64_t>(s.connect_attempts));
  const sim::SimDuration connect = s.conn->establish();
  s.phases.network_connection += connect;
  if (faults_ &&
      faults_->should_fire(sim::FaultKind::kNetDrop, simulator.now())) {
    // The handshake never completes; the client times out and retries
    // with exponential backoff until its attempt budget runs dry.
    if (s.connect_attempts >= config_.max_connect_attempts) {
      simulator.schedule_in(connect, guarded<&Platform::reject_session>(
                                         s, RejectReason::kConnectFailed));
      return;
    }
    constexpr sim::SimDuration kConnectBackoff = 200 * sim::kMillisecond;
    const sim::SimDuration backoff =
        kConnectBackoff *
        static_cast<sim::SimDuration>(1u << (s.connect_attempts - 1));
    s.phases.network_connection += backoff;
    simulator.schedule_in(connect + backoff,
                          guarded<&Platform::attempt_connect>(s));
    return;
  }
  simulator.schedule_in(connect, guarded<&Platform::on_connected>(s));
}

void Platform::on_connected(SessionState& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, s);
  s.connected_at = simulator.now();
  end_phase(s);  // connect
  begin_phase(s, "dispatch");
  const Calibration& cal = server_->calibration();

  sim::SimDuration platform_cost = cal.dispatcher_cost;
  if (config_.code_cache) {
    platform_cost += cal.warehouse_lookup_cost;
    s.cache_hit = server_->warehouse().lookup(s.app->code_ref);
    trace_.annotate(s.span_phase, "cache_hit",
                    static_cast<std::uint64_t>(s.cache_hit ? 1 : 0));
  }
  // Request-based Access Controller: per-app analysis, once.
  if (server_->access().ensure_analyzed(s.app_id())) {
    platform_cost += cal.access_analysis_cost;
  } else {
    platform_cost += cal.access_check_cost;
  }

  // Requests of blocked tenants never reach an environment (§IV-E): the
  // arrival gate refused the tenant if it was blocked then, and a block
  // that started during the handshake swept this live session
  // (on_tenant_blocked) and voided this continuation.
  assert(!server_->access().blocked_at(s.tenant, simulator.now()) &&
         "on_tenant_blocked sweeps a blocked tenant's live sessions");

  // Admission front door (docs/LOADGEN.md, docs/QOS.md): per-tenant
  // token bucket, per-class utilization shedding, then a dispatch slot
  // or the class-aware bounded queue.
  if (admission_ != nullptr) {
    const Result<AdmissionController::Admitted> verdict = admission_->offer(
        AdmissionController::Offer{s.tenant, s.klass, s.slot},
        simulator.now());
    if (!verdict) {
      reject_session(s, verdict.error());
      return;
    }
    if (*verdict == AdmissionController::Admitted::kQueued) {
      s.queued = true;
      s.pending_lead = platform_cost;
      touched(s);
      trace_.annotate(s.span_phase, "queued", std::uint64_t{1});
      return;  // dispatched by maybe_start_queued() when a slot frees
    }
    s.admitted = true;
    touched(s);
  }

  dispatch(s, platform_cost);
}

void Platform::maybe_start_queued() {
  if (admission_ == nullptr) return;
  sim::Simulator& simulator = server_->simulator();
  while (admission_->can_start_queued()) {
    // The scheduler decides which class/tenant goes next (strict priority
    // + weighted DRR); finished sessions were already removed from the
    // queue by finish_session, so every pop maps to a live session.
    const auto popped = admission_->pop_queued(simulator.now());
    if (!popped) break;
    SessionState& s = sessions_.at(static_cast<std::uint32_t>(popped->id));
    assert(s.queued && "scheduler echoed an id the platform is not tracking");
    s.queued = false;
    s.admitted = true;
    s.queue_wait = popped->waited;
    s.drr_deficit = popped->deficit_after;
    touched(s);
    SessionScope scope(*this, s);
    trace_.annotate(s.span_phase, "queue_wait_us",
                    static_cast<std::uint64_t>(s.queue_wait));
    trace_.annotate(s.span_phase, "deficit", s.drr_deficit);
    dispatch(s, s.pending_lead);
  }
}

void Platform::dispatch(SessionState& s,
                        sim::SimDuration lead_cost) {
  sim::Simulator& simulator = server_->simulator();
  ++s.dispatch_attempts;
  const EnvRecord* picked =
      dispatcher_->assign(s.request, s.app->code_ref, simulator.now(),
                          class_backlog_threshold(s.klass), s.klass);
  simulator.schedule_in(lead_cost, guarded<&Platform::on_dispatched>(
                                       s, picked != nullptr ? picked->id : 0));
}

void Platform::on_dispatched(SessionState& s, EnvId picked) {
  SessionScope scope(*this, s);
  bool from_pool = false;
  EnvRecord& env = capacity_.acquire(
      picked, Dispatcher::binding_key(s.request),
      [&](bool fresh, bool pooled) {
        // Before a fresh environment starts, so faults fired during its
        // (synchronous) start annotate the boot, not the dispatch.
        begin_phase(s, fresh ? "provision" : "reuse");
        s.fresh_env = fresh;
        from_pool = pooled;
      },
      guarded<&Platform::on_env_ready>(s));
  trace_.annotate(s.span_phase, "env_id", static_cast<std::uint64_t>(env.id));
  if (from_pool) trace_.annotate(s.span_phase, "warm_pool", std::uint64_t{1});
  s.env = &env;
  touched(s);
  if (env.ready()) on_env_ready(s);
}

void Platform::on_env_ready(SessionState& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, s);
  if (s.env->failed) {
    // Provisioning failed (host capacity): reject the request.
    reject_session(s, RejectReason::kCapacity);
    return;
  }
  const sim::SimDuration stall = link_->stall(simulator.now());
  if (stall > 0) {
    // Handoff outage cut the session between dispatch and upload: the
    // environment stays bound and the upload starts when the new radio
    // attaches (the wait lands in runtime_preparation, which is wall
    // time from the device's perspective).
    note_resumption(s);
    simulator.schedule_in(stall, guarded<&Platform::on_env_ready>(s));
    return;
  }
  s.phases.runtime_preparation = simulator.now() - s.connected_at;
  // The paper's headline latency split: what a session waits when its
  // environment must boot vs when a warm one is rebound.
  SessionMetrics& sm = session_metrics_;
  (s.fresh_env
       ? metrics_.resolve(sm.prep_provision_ms, "session.prep.provision_ms")
       : metrics_.resolve(sm.prep_reuse_ms, "session.prep.reuse_ms"))
      .observe(sim::to_millis(s.phases.runtime_preparation));
  capacity_.count_start(s.fresh_env);
  begin_phase(s, "transfer");

  // Determine the code push. With a code cache the warehouse answer
  // rules; without one the client must push into every environment that
  // has not seen this app yet (the duplicate transfer of Obs. 3).
  bool have_code;
  if (config_.code_cache) {
    have_code = s.cache_hit;
  } else {
    have_code = s.env->pushed_apps.contains(s.app_id());
    s.cache_hit = have_code;
  }

  const device::MobileDevice& dev = device_for(s.request.device_id);
  device::OffloadClient client(dev);
  const device::UploadPlan plan =
      client.plan_upload(s.request, s.app->app.apk_bytes(), have_code);

  // Upload: control handshake, optional code, files + parameters.
  sim::SimDuration upload = dev.config().serialize_cost;
  upload += s.conn->upload(net::Message{net::MessageType::kControl,
                                         client.protocol().request_control});
  upload += s.conn->download(net::Message{
      net::MessageType::kControl, client.protocol().response_control});
  if (plan.push_code) {
    upload += s.conn->upload(
        net::Message{net::MessageType::kMobileCode, plan.code_bytes});
    s.env->pushed_apps.insert(s.app_id());
    if (config_.code_cache) {
      server_->warehouse().store(s.app->code_ref, plan.code_bytes);
    }
  }
  const std::uint64_t payload = plan.file_bytes + plan.param_bytes;
  if (payload > 0) {
    upload += s.conn->upload(
        net::Message{net::MessageType::kFileParams, payload});
  }


  // Server-side ingest of the arriving bytes: shared tmpfs (free relative
  // to the link) or the environment's disk (virtualized for VMs).
  const std::uint64_t ingest_bytes = plan.code_bytes + payload;
  sim::SimDuration ingest = 0;
  if (ingest_bytes > 0) {
    bool staged = false;
    if (config_.sharing_offload_io) {
      staged = server_->shared_layer().stage_request_files(
          s.request.sequence, payload, simulator.now());
      if (staged) {
        ingest = server_->shared_layer().io_time(ingest_bytes);
        s.staged = payload > 0;
      }
    }
    if (config_.sharing_offload_io && !staged && payload > 0) {
      // In-memory layer full: spill this request's files to disk (the
      // tradeoff §IV-C accepts — volatility and size are bounded because
      // offload payloads are small, but the fallback must exist).
      s.spilled_to_disk = true;
      const sim::SimDuration native =
          server_->disk().service_time(ingest_bytes, true);
      ingest = native;
      server_->disk().submit(fs::IoKind::kWrite, ingest_bytes, true,
                             []() {});
    }
    if (!config_.sharing_offload_io) {
      const sim::SimDuration native =
          server_->disk().service_time(ingest_bytes, true);
      ingest = s.env->is_vm()
                   ? static_cast<sim::SimDuration>(
                         static_cast<double>(native) /
                         server_->calibration().vm_io_factor)
                   : native;
      // The write hits the host disk (the Fig. 2 I/O burst after boot).
      server_->disk().submit(fs::IoKind::kWrite, ingest_bytes, true,
                             []() {});
    }
  }

  s.upload_time = upload;
  const sim::SimDuration transfer = std::max(upload, ingest);
  s.phases.data_transfer = transfer;
  trace_.annotate(s.span_phase, "push_code",
                  static_cast<std::uint64_t>(plan.push_code ? 1 : 0));
  trace_.annotate(s.span_phase, "bytes",
                  static_cast<std::uint64_t>(ingest_bytes));
  if (s.spilled_to_disk) {
    trace_.annotate(s.span_phase, "spilled", std::uint64_t{1});
  }
  simulator.schedule_in(transfer, guarded<&Platform::on_uploaded>(s));
}

void Platform::on_uploaded(SessionState& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, s);
  begin_phase(s, "execute");  // transfer ends now; queueing included
  EnvRecord& env = *s.env;

  // The controller filters every workflow leaving the container (§IV-E);
  // honest benchmark apps hold all of these grants.  Adversarial streams
  // additionally probe the operations their SessionConfig lists
  // (docs/RAC.md): each disallowed probe lands in the tenant's violation
  // ledger, and crossing the threshold blocks the tenant on the spot —
  // including this very session, swept by the on_block hook mid-handler.
  auto& access = server_->access();
  if (s.executed.units.io_bytes > 0) {
    access.check(s.app_id(), s.tenant, Operation::kReadOffloadFile,
                 simulator.now());
    access.check(s.app_id(), s.tenant, Operation::kWriteOffloadFile,
                 simulator.now());
  }
  access.check(s.app_id(), s.tenant, Operation::kBinderCall,
               simulator.now());
  if (config_.code_cache) {
    access.check(s.app_id(), s.tenant, Operation::kReadWarehouse,
                 simulator.now());
  }
  // A probe that crosses the threshold ends this session in the sweep,
  // which frees its record: re-resolve it after every probe.
  const SessionRef self = session_ref(s);
  for (const Operation op : s.stream->config.probe_ops) {
    access.check(s.app_id(), s.tenant, op, simulator.now());
    if (find_session(self) == nullptr) return;  // self-evicted
  }

  // ClassLoader: first load per environment pays dex verification.
  android::ClassLoader& loader =
      env.is_vm() ? env.vm_loader : env.cac->classloader();
  const sim::SimDuration classload =
      loader.load(s.app_id(), s.app->app.apk_bytes());

  // Binder traffic of the task (exercises the Android Container Driver
  // for container-backed environments).
  sim::SimDuration binder_cost = 0;
  const std::uint32_t binder_calls = s.app->binder_calls_per_task;
  if (!env.is_vm() && env.cac->container() != nullptr) {
    const kernel::DevNsId ns = env.cac->container()->devns();
    for (std::uint32_t i = 0; i < binder_calls; ++i) {
      const auto result = server_->kernel().syscalls().invoke(
          kernel::kSysBinderTransact, ns, 512);
      binder_cost += result.cost;
    }
  } else {
    binder_cost = binder_calls * 2 *
                  kernel::BinderDriver::transaction_cost(512);
  }

  // Compute time: native units rate, degraded by the platform CPU factor,
  // plus the offloading I/O the task performs.
  const sim::SimDuration native =
      server_->native_compute_time(s.kind, s.executed.units.compute);
  const auto cpu = static_cast<sim::SimDuration>(
      static_cast<double>(native) / cpu_factor());
  sim::SimDuration io;
  if (s.spilled_to_disk) {
    // Spilled inputs read back from disk regardless of the shared layer.
    const Calibration& cal = server_->calibration();
    io = server_->disk().service_time(s.executed.units.io_bytes, true) +
         static_cast<sim::SimDuration>(s.request.task.io_ops) *
             sim::from_millis(cal.disk.avg_seek_ms + cal.disk.rotational_ms);
  } else {
    io = compute_io_time(env, s.executed.units.io_bytes,
                         s.request.task.io_ops);
  }
  if (config_.sharing_offload_io && !s.spilled_to_disk) {
    // Burn after reading: consume the staged files.
    server_->shared_layer().consume_request_files(s.request.sequence,
                                                  simulator.now());
    s.staged = false;
  } else if (s.executed.units.io_bytes > 0) {
    // The task reads its inputs back off the disk.
    server_->disk().submit(fs::IoKind::kRead, s.executed.units.io_bytes,
                           true, []() {});
  }

  // Interactive workloads keep chatting with the device while executing
  // (game-state sync, COMET-style): each round is a small message pair
  // plus device-side handling, serialized with the computation. Locally
  // run code gets this interaction for free, which is why chatty apps
  // profit less from offloading than their compute ratio suggests.
  sim::SimDuration interaction = 0;
  for (std::uint32_t round = 0; round < s.request.task.control_rounds;
       ++round) {
    s.conn->upload(net::Message{net::MessageType::kControl, 48});
    s.conn->download(net::Message{net::MessageType::kControl, 48});
    interaction += link_->config().rtt + sim::from_millis(60);
  }

  // Processor sharing: when more environments compute than the server
  // has cores, everybody slows proportionally (admission-time
  // approximation; exact redistribution is unnecessary at the paper's
  // 5-device scale but matters for the consolidation-density bench).
  const double concurrency =
      static_cast<double>(server_->monitor().running_jobs() + 1);
  const double cores = static_cast<double>(server_->calibration().server_cores);
  const double contention = std::max(1.0, concurrency / cores);
  const sim::SimDuration duration = static_cast<sim::SimDuration>(
      static_cast<double>(classload + binder_cost + cpu + io + interaction) *
      contention);
  const sim::SimTime start = std::max(simulator.now(), env.busy_until);
  const sim::SimTime done = start + duration;
  env.busy_until = done;
  server_->monitor().record_cpu(start, done, 1.0);
  server_->monitor().job_started(s.klass);
  s.computing = true;
  touched(s);
  if (faults_) {
    // Container crash / OOM-kill: the environment dies halfway through
    // this job. One consult per job and per kind keeps both substreams
    // advancing deterministically regardless of which one fires.
    const bool crash_fire =
        faults_->should_fire(sim::FaultKind::kContainerCrash,
                             simulator.now());
    const bool oom_fire = faults_->should_fire(
        sim::FaultKind::kContainerOom, simulator.now());
    if (crash_fire || oom_fire) {
      simulator.schedule_at(start + duration / 2,
                            [this, id = env.id]() { capacity_.crash(id); });
    }
  }
  simulator.schedule_at(done, guarded<&Platform::on_computed>(s));
}

void Platform::on_computed(SessionState& s) {
  sim::Simulator& simulator = server_->simulator();
  SessionScope scope(*this, s);
  server_->monitor().job_finished(s.klass);
  s.computing = false;
  touched(s);
  EnvRecord& env = *s.env;
  // Computation phase spans upload-end → compute-end (queueing included).
  s.phases.computation = simulator.now() -
                          (s.connected_at + s.phases.runtime_preparation +
                           s.phases.data_transfer);
  begin_phase(s, "teardown");  // result download + completion control
  ++env.jobs_served;
  if (config_.code_cache) {
    server_->warehouse().record_execution(s.app->code_ref, env.id);
  }

  // Result + completion control flow back.
  device::OffloadClient client(device_for(s.request.device_id));
  sim::SimDuration download = s.conn->download(
      net::Message{net::MessageType::kResult, s.request.task.result_bytes});
  download += s.conn->upload(net::Message{
      net::MessageType::kControl, client.protocol().completion_control});
  s.download_time = download;
  s.phases.data_transfer += download;
  // Handoff outage at result-delivery time: the download waits for the
  // new radio to attach (the computed result is already spooled server
  // side), then transfers at the new radio's rates.
  const sim::SimDuration stall = link_->stall(simulator.now());
  if (stall > 0) {
    note_resumption(s);
    s.phases.data_transfer += stall;
  }
  simulator.schedule_in(stall + download, guarded<&Platform::complete>(s));
}

void Platform::complete(SessionState& s) {
  SessionScope scope(*this, s);
  RequestOutcome& outcome = outcome_of(s);
  const device::MobileDevice& dev = device_for(s.request.device_id);
  outcome.local_time = dev.local_execution_time(s.kind, s.executed);
  outcome.speedup = outcome.response > 0
                        ? static_cast<double>(outcome.local_time) /
                              static_cast<double>(outcome.response)
                        : 0.0;
  const device::RadioProfile radio = radio_profile();
  outcome.upload_time = s.upload_time;
  outcome.download_time = s.download_time;
  outcome.offload_energy_mj = offload_energy_mj(
      s.phases, s.upload_time, s.download_time, radio);
  outcome.local_energy_mj = dev.local_energy_mj(s.kind, s.executed, radio);
  outcome.traffic = s.conn->traffic();
  outcome.env_id = s.env->id;
  outcome.code_cache_hit = s.cache_hit;
  outcome.queue_wait = s.queue_wait;
  outcome.recovered = s.recovered;
  outcome.deadline_missed =
      s.deadline > 0 && outcome.response > s.deadline;

  SessionMetrics& sm = session_metrics_;
  const std::size_t klass = qos::class_index(s.klass);
  const double response_ms = sim::to_millis(outcome.response);
  metrics_.resolve(sm.completed, "sessions.completed").inc();
  metrics_.resolve(sm.qos_completed[klass], "qos.completed.",
          qos::to_string(s.klass))
      .inc();
  if (outcome.deadline_missed) {
    metrics_.resolve(sm.deadline_missed, "qos.deadline.missed").inc();
  }
  if (s.cache_hit) {
    metrics_.resolve(sm.cache_hits, "sessions.cache_hits").inc();
  }
  if (s.recovered) {
    metrics_.resolve(sm.recovered, "sessions.recovered").inc();
  }
  metrics_.resolve(sm.response_ms, "session.response_ms")
      .observe(response_ms);
  metrics_.resolve(sm.qos_response_ms[klass], "qos.response_ms.",
          qos::to_string(s.klass))
      .observe(response_ms);
  if (admission_ != nullptr) {
    // Goodput latency: responses of sessions that made it through
    // admission (the saturation bench's p99-of-accepted curve).
    metrics_.resolve(sm.accepted_response_ms, "session.accepted.response_ms")
        .observe(response_ms);
  }
  trace_.annotate(s.span_session, "env_id",
                  static_cast<std::uint64_t>(s.env->id));
  trace_.annotate(s.span_session, "cache_hit",
                  static_cast<std::uint64_t>(s.cache_hit ? 1 : 0));
  if (s.recovered) {
    trace_.annotate(s.span_session, "recovered", std::uint64_t{1});
  }
  trace_.annotate(s.span_session, "speedup", outcome.speedup);
  if (outcome.deadline_missed) {
    trace_.annotate(s.span_session, "deadline_missed", std::uint64_t{1});
  }
  finish_session(s);
}

// ---------------------------------------------------------------------
// Fault handling and recovery

void Platform::arm_mobility_pump() {
  if (config_.mobility.empty()) return;
  // Each run replays the plan from the base radio; a previous run's
  // handoffs must not leak into this one.
  link_->reset(config_.link);
  sim::Simulator& simulator = server_->simulator();
  const sim::SimTime start = simulator.now();
  for (const HandoffEvent& event : config_.mobility) {
    simulator.schedule_at(start + event.at, [this, event]() {
      const sim::SimTime now = server_->simulator().now();
      const std::string from = link_->handoff(event.to, event.outage, now);
      if (trace_.enabled()) {
        trace_.instant(kPlatformTrack,
                       ("handoff " + from + "→" + event.to.name).c_str(),
                       "mobility", now);
      }
    });
  }
}

void Platform::note_resumption(SessionState& s) {
  if (s.resumed) return;  // count each session once, however often it stalls
  s.resumed = true;
  link_->note_resumption();
  trace_.annotate(s.span_session, "resumed", std::uint64_t{1});
}

void Platform::sweep_crashed(const EnvRecord& env) {
  // The sessions stay *bound*: the Monitor has not discovered the crash
  // yet, and the session-env-liveness invariant tolerates that window.
  for_each_live([&](SessionState& s) {
    if (s.env != &env) return;
    ++session_slots_[s.slot].gen;
    trace_.instant(s.request.sequence + 1, "env_crash", "fault",
                   server_->simulator().now());
    if (s.computing) {
      server_->monitor().job_finished(s.klass);
      s.computing = false;
    }
    if (s.staged) {
      server_->shared_layer().release_request_files(s.request.sequence);
      s.staged = false;
    }
    touched(s);
  });
}

void Platform::recover_env(std::uint32_t env_id) {
  // The Monitor's health sweep found the corpse (the crash is no longer
  // pending). Without crash recovery the platform does nothing —
  // sessions stay bound to the dead CID and the invariant harness is
  // what notices.
  EnvTable& table = capacity_.table();
  table.touch(env_id);
  if (!config_.crash_recovery) return;
  const EnvRecord* dead = table.find(env_id);
  if (dead == nullptr) return;  // erased: no session was bound to it
  std::vector<std::uint32_t> victims;
  for_each_live([&](const SessionState& s) {
    if (s.env == dead) victims.push_back(s.slot);
  });
  for (const std::uint32_t slot : victims) {
    SessionState& s = sessions_.at(slot);
    // The last release erases the record: look it up every time.
    if (EnvRecord* env = table.find(env_id)) capacity_.release(*env);
    s.env = nullptr;
    ++session_slots_[slot].gen;
    touched(s);
    if (s.dispatch_attempts >= config_.max_redispatch) {
      reject_session(s, RejectReason::kRedispatchExhausted);
      continue;
    }
    // Re-dispatch over the existing connection: the device re-sends its
    // request and the session restarts from runtime preparation.
    s.recovered = true;
    s.connected_at = server_->simulator().now();
    {
      SessionScope scope(*this, s);
      begin_phase(s, "redispatch");  // closes the span the crash cut off
    }
    dispatch(s, server_->calibration().dispatcher_cost);
  }
}

void Platform::on_tenant_blocked(const std::string& tenant,
                                 sim::SimTime now) {
  // The violation ledger crossed the threshold: evict every live session
  // of the offender *now*, so a blocked tenant consumes zero container
  // time past block onset (the rac-blocked-isolation invariant).
  if (oracle_ != nullptr) oracle_->touch_tenant(tenant);
  const obs::SpanId mark =
      trace_.instant(kPlatformTrack, "rac_block", "rac", now);
  trace_.annotate(mark, "tenant", tenant);
  // Collect first: reject_session unlinks from the live list (and frees
  // the record `tenant` may point into, so it is not read past here).
  std::vector<std::uint32_t> victims;
  for_each_live([&](const SessionState& s) {
    if (s.tenant == tenant) victims.push_back(s.slot);
  });
  for (const std::uint32_t slot : victims) {
    SessionState& s = sessions_.at(slot);
    ++session_slots_[slot].gen;  // neutralize every scheduled continuation
    trace_.annotate(s.span_session, "rac_swept", std::uint64_t{1});
    reject_session(s, RejectReason::kAccessDenied);
  }
}

void Platform::reject_session(SessionState& s, RejectReason reason) {
  SessionScope scope(*this, s);
  SessionMetrics& sm = session_metrics_;
  metrics_.resolve(sm.rejected, "sessions.rejected").inc();
  metrics_
      .resolve(sm.rejected_by_reason[static_cast<std::size_t>(reason)],
               "sessions.rejected.", to_string(reason))
      .inc();
  metrics_
      .resolve(sm.qos_rejected[qos::class_index(s.klass)], "qos.rejected.",
               qos::to_string(s.klass))
      .inc();
  // Typed reject reply: the device learns *why* it was turned away
  // (back-off hint) at the cost of one small downlink frame.  Sessions
  // whose connection never established — a connect that failed, or one
  // still queued when the RAC turned the session away — have nowhere to
  // send it.
  if (reason != RejectReason::kConnectFailed && s.conn.has_value() &&
      s.conn->established()) {
    s.conn->download(
        net::Message{net::MessageType::kReject, net::kRejectReplyBytes});
  }
  trace_.annotate(s.span_session, "rejected", std::uint64_t{1});
  trace_.annotate(s.span_session, "reject_reason", to_string(reason));
  RequestOutcome& outcome = outcome_of(s);
  outcome.rejected = true;
  outcome.reject_reason = reason;
  outcome.queue_wait = s.queue_wait;
  outcome.traffic = s.conn ? s.conn->traffic() : net::TrafficAccount{};
  finish_session(s);
}

RequestOutcome& Platform::outcome_of(const SessionState& s) {
  const sim::SimTime now = server_->simulator().now();
  // The slot still holds only the request submit parked there.
  RequestOutcome& outcome = s.stream->outcomes[s.position];
  outcome.phases = s.phases;
  outcome.completed_at = now;
  outcome.response = now - s.request.arrival;
  outcome.tenant = s.tenant;
  outcome.qos_class = s.klass;
  outcome.radio = link_->name();
  outcome.resumed = s.resumed;
  outcome.dispatch_attempts = s.dispatch_attempts;
  outcome.connect_attempts = s.connect_attempts;
  return outcome;
}

void Platform::finish_session(SessionState& s) {
  const sim::SimTime now = server_->simulator().now();
  const std::uint64_t sequence = s.request.sequence;
  Stream& stream = *s.stream;
  const std::uint32_t position = s.position;
  const RequestOutcome& outcome = stream.outcomes[position];
  end_phase(s);
  if (s.span_session != obs::kNoSpan) trace_.end(s.span_session, now);
  if (config_.adaptive_offloading && !outcome.rejected) {
    // Every run refreshes the local estimate; an offload (one that had an
    // environment) also the remote one, and only offloads are samples.
    DecisionState& history = decisions_[s.app_id()];
    const auto fold = [](double& ewma, double x, bool first) {
      ewma = first ? x : 0.7 * ewma + 0.3 * x;
    };
    fold(history.ewma_local_s, sim::to_seconds(outcome.local_time),
         history.ewma_local_s == 0);
    if (s.env != nullptr) {
      fold(history.ewma_remote_s, sim::to_seconds(outcome.response),
           history.samples == 0);
      ++history.samples;
    }
  }
  const bool stranded = outcome.stranded;

  if (s.computing) server_->monitor().job_finished(s.klass);
  if (s.staged) server_->shared_layer().release_request_files(sequence);
  if (s.env != nullptr) capacity_.release(*s.env);
  ++completed_;
  unlink_live(s);
  // Return the RAC, queue and in-service slots the session held.
  if (s.rac_slot) server_->access().release(s.tenant);
  if (admission_ != nullptr && s.queued) {
    // Ended while still waiting in a class queue (rejected after the
    // access controller blocked its app, or stranded); pull it out of
    // the scheduler so no stale id is ever echoed by pop_queued().
    admission_->abandon_queued(s.klass, s.tenant, s.slot);
  }
  if (admission_ != nullptr && s.admitted) admission_->release();
  touched(s);  // unlinked: the oracle drops it from its books
  release_session(s.slot);
  // A stranded session ends after the event queue drained, together with
  // every other live one: queued work it frees is stranded in the same
  // sweep, so none starts here.
  if (!stranded) maybe_start_queued();
  if (completion_observer_) {
    // Moved out for the call: a submit from the observer may grow the
    // stream's outcomes, which would move the slot under its reference.
    RequestOutcome done = std::move(stream.outcomes[position]);
    completion_observer_(done);
    stream.outcomes[position] = std::move(done);
  }
  outcome_index_[sequence].done = true;
}

void Platform::touched(const SessionState& s) {
  if (oracle_ != nullptr) oracle_->touch(session_ref(s));
}

}  // namespace rattrap::core
