// session_bench — one timed replay of a named end-to-end workload.
//
//   session_bench --workload cold-fleet --seed 3
//   session_bench --workload rpc-wire --seed 3 --twin
//   session_bench --workload fault-elastic --seed 3 --traced --spans-out f.json
//   session_bench --selftest
//
// Builds the workload's inputs from the seed, drives core::Platform
// through the public Session API (over a loopback rpc::Server on
// rpc-wire), and prints one JSON object on the last stdout line with the
// raw measurements: wall-clock times of the benchmark's own calls into
// each layer, the virtual-time results computed from the outcomes, and
// the counts run.py checks for correctness.  Nothing here reaches inside
// the platform; every number is read through a public function.
//
// --traced adds the per-layer run: per-submit timings, platform tracing,
// probes (measure_provision, layer_digest, the wire codec) and the
// outside-in ablations (invariant oracle off, sim twin of the socket
// path).  run.py aggregates repeated processes; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "container/registry.hpp"
#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/wire.hpp"
#include "sim/loadgen.hpp"
#include "workloads/workload.hpp"

using namespace rattrap;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- Small helpers ------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile of sorted samples plus how many samples lie
/// beyond it (run.py withholds a percentile with fewer than ten beyond).
struct Percentile {
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

Percentile percentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.n = sorted.size();
  if (sorted.empty()) return p;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(p.n))));
  p.value = sorted[std::min(p.n, rank) - 1];
  p.beyond = p.n - std::min(p.n, rank);
  return p;
}

Percentile percentile_of(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile(samples, q);
}

/// Wall time to complete the second half of the sessions over the time
/// for the first half, both measured from the first completion (on the
/// socket path the worker may still be draining submits when close is
/// called).  `stamps` are completion instants in seconds, in completion
/// order: linear cost reads 1.0, cost growing linearly per session
/// (quadratic total) reads 3.0.
double half_wall_ratio(const std::vector<double>& stamps) {
  if (stamps.size() < 3) return 0;
  const double half = stamps[stamps.size() / 2 - 1];
  return ratio(stamps.back() - half, half - stamps.front());
}

/// FNV-1a, the same hash loadgen prints as metrics_fingerprint.
std::string fingerprint(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(const core::Platform& platform, std::string_view name) {
  const obs::Counter* c = platform.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// Reads a counter out of an exported metrics document ("name":123).
std::uint64_t json_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// Flat JSON object writer for the result line.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    return raw(key, obs::json_number(std::isfinite(value) ? value : 0.0));
  }
  JsonObject& count(std::string_view key, std::uint64_t value) {
    return raw(key, obs::json_number(value));
  }
  JsonObject& flag(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, obs::json_quote(value));
  }
  JsonObject& pct(std::string_view key, const Percentile& p) {
    return raw(key, JsonObject()
                        .num("value", p.value)
                        .count("n", p.n)
                        .count("beyond", p.beyond)
                        .done());
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (body_.size() > 1) body_ += ',';
    body_ += obs::json_quote(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

// -- Wall-clock spans around the benchmark's own calls -------------------

/// Spans the benchmark records around each call it makes into a layer,
/// kept in an obs::TraceRecorder with wall-clock microseconds since the
/// process began as timestamps (category = layer).  Each span carries a
/// "parent" arg, the span open when it began; self time is a span's
/// duration minus its direct children's.
struct WallSpans {
  explicit WallSpans(bool enabled) { recorder.enable(enabled); }

  [[nodiscard]] sim::SimTime now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - epoch)
        .count();
  }

  /// Self time per layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
    const std::vector<obs::SpanRecord>& spans = recorder.spans();
    std::vector<double> child_us(spans.size() + 1, 0.0);
    for (const obs::SpanRecord& span : spans) {
      for (const auto& [key, value] : span.args) {
        if (key == "parent") {
          child_us[std::strtoull(value.c_str(), nullptr, 10)] +=
              static_cast<double>(span.end - span.start);
        }
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const obs::SpanRecord& span = spans[i];
      self[span.category] +=
          (static_cast<double>(span.end - span.start) - child_us[i + 1]) / 1e3;
    }
    return self;
  }

  obs::TraceRecorder recorder;
  std::vector<obs::SpanId> open;
  Clock::time_point epoch = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(WallSpans& spans, std::string_view name, std::string_view layer)
      : spans_(spans),
        id_(spans.recorder.begin(1, name, layer, spans.now_us())) {
    if (id_ == obs::kNoSpan) return;
    spans_.recorder.annotate(
        id_, "parent",
        std::uint64_t{spans_.open.empty() ? obs::kNoSpan : spans_.open.back()});
    spans_.open.push_back(id_);
  }
  ~ScopedSpan() {
    if (id_ == obs::kNoSpan) return;
    spans_.recorder.end(id_, spans_.now_us());
    spans_.open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  WallSpans& spans_;
  obs::SpanId id_;
};

// -- Workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  core::PlatformConfig platform;
  core::LoadDriverConfig load;
  bool rpc = false;
};

/// The four named workloads (README.md records why each exists).  Every
/// one is open-loop Poisson in virtual time with its schedule fixed by
/// `seed`.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.platform = core::make_config(core::PlatformKind::kRattrap);
  w.platform.seed = seed;
  w.load.kind = workloads::Kind::kLinpack;
  sim::LoadGenConfig& load = w.load.loadgen;
  load.arrival = sim::ArrivalProcess::kPoisson;
  load.seed = seed;
  if (name == "cold-fleet") {
    load.devices = 10000;
    load.rate_per_s = 20;
    load.requests = 10000;
  } else if (name == "warm-qos") {
    load.devices = 64;
    load.rate_per_s = 36;
    load.requests = 120000;
    w.platform.admission.enabled = true;
    w.platform.admission.qos.enabled = true;
    load.mix = {{"gold", 0, 1, 0.2}, {"silver", 1, 2, 0.5},
                {"bronze", 2, 1, 0.3}};
  } else if (name == "rpc-wire") {
    load.devices = 256;
    load.rate_per_s = 25;
    load.requests = 80000;
    w.rpc = true;
  } else if (name == "fault-elastic") {
    load.devices = 400;
    load.rate_per_s = 12;
    load.requests = 3000;
    load.profile = sim::RateProfile::kDiurnal;
    load.profile_period_s = 120;
    load.profile_peak_factor = 2.5;
    w.platform.elastic.mode = core::elastic::PoolMode::kPredictive;
    auto plan = sim::FaultPlan::parse("net.drop:p=0.02;container.crash:p=0.01");
    if (!plan) return std::nullopt;
    w.platform.fault_plan = std::move(*plan);
    w.platform.crash_recovery = true;
    w.platform.check_invariants = true;
    // Retry budgets wide enough that every session ends served: at the
    // defaults (3 dispatches, 4 connects) about one process in sixty
    // rejects a session whose environment crashed three times, and the
    // workload is meant to measure recovery, not count its give-ups.
    w.platform.max_redispatch = 12;
    w.platform.max_connect_attempts = 10;
  } else {
    return std::nullopt;
  }
  return w;
}

/// The materialized request stream, each request's mix slot, and the
/// session configs the slots are opened with.
struct Inputs {
  std::vector<workloads::OffloadRequest> stream;
  std::vector<std::uint32_t> slot;
  std::vector<core::SessionConfig> sessions;  ///< one per slot
};

// -- One platform under drive ---------------------------------------------

/// Completion instants, one clock read per outcome.  On rpc-wire the
/// observer runs on the server's platform worker, so access is locked.
class CompletionStamps {
 public:
  void reserve(std::size_t n) { stamps_.reserve(n); }
  void record() {
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    stamps_.push_back(now);
  }
  [[nodiscard]] std::vector<double> since(Clock::time_point origin) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    out.reserve(stamps_.size());
    for (const Clock::time_point t : stamps_) {
      out.push_back(std::chrono::duration<double>(t - origin).count());
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Clock::time_point> stamps_;
};

/// A Platform plus, on the socket path, the loopback server and client.
/// Members are declared so the client and server go before the platform.
struct Rig {
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  CompletionStamps stamps;
  std::unique_ptr<core::Platform> platform;
  std::unique_ptr<rpc::Server> server;
  std::unique_ptr<rpc::ClientTransport> client;
  std::unique_ptr<core::LocalSessionTransport> local;

  core::SessionTransport& transport() {
    return client ? static_cast<core::SessionTransport&>(*client) : *local;
  }
  std::string export_metrics() {
    return client ? client->fetch_metrics() : platform->metrics().to_json();
  }

  /// Disconnects, waits until the server has folded the connection's
  /// frame and byte counts into rpc.*, then stops it.  Returns the
  /// rpc.* document (empty on the sim path).
  std::string shutdown() {
    if (!server) return {};
    client.reset();
    std::string json = server->rpc_metrics_json();
    const Clock::time_point start = Clock::now();
    while (json_counter(json, "rpc.conn.closed") == 0 &&
           seconds_since(start) < 5.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      json = server->rpc_metrics_json();
    }
    server->stop();
    return json;
  }

  ~Rig() {
    client.reset();
    if (server) server->stop();
  }
};

/// Builds a rig for `config`; `rpc` puts a loopback server with one I/O
/// thread in front of the platform.  nullptr if the socket path fails.
std::unique_ptr<Rig> make_rig(const core::PlatformConfig& config, bool rpc,
                              bool traced, std::size_t sessions) {
  auto rig = std::make_unique<Rig>();
  rig->platform = std::make_unique<core::Platform>(config);
  if (traced) rig->platform->trace().enable();
  rig->stamps.reserve(sessions);
  Rig* raw = rig.get();
  rig->platform->set_completion_observer(
      [raw](const core::RequestOutcome&) { raw->stamps.record(); });
  if (!rpc) {
    rig->local = std::make_unique<core::LocalSessionTransport>(*rig->platform);
    return rig;
  }
  rpc::ServerConfig server_config;
  server_config.io_threads = 1;
  rig->server = std::make_unique<rpc::Server>(*rig->platform, server_config);
  if (!rig->server->start()) return nullptr;
  rig->client = rpc::ClientTransport::connect("127.0.0.1", rig->server->port());
  if (rig->client == nullptr) return nullptr;
  return rig;
}

/// Wall-clock view of one drive phase: first open_session through the
/// metrics export after the last close and summarize_load.
struct Drive {
  bool ok = true;
  double wall_s = 0;
  double drain_s = 0;  ///< the first close, which drains the run
  double close_s = 0;  ///< every close
  double summarize_ms = 0;
  double export_ms = 0;
  double half_wall_ratio = 0;
  std::vector<double> submit_us;  ///< per submit, when timed
  /// What the closes returned, in the order they returned it.
  std::vector<core::RequestOutcome> outcomes;
  // The benchmark's own ledger of the closes: every submitted sequence
  // must come back exactly once.
  std::size_t missing = 0;     ///< submitted, never returned
  std::size_t duplicates = 0;  ///< returned more than once
  std::size_t stray = 0;       ///< returned, never submitted
  std::string metrics_json;
};

/// Test-only corruption of what the closes return, so the self-tests can
/// show that the accounting checks catch a lost or doubled outcome.
enum class Forge { kNone, kDrop, kDuplicate };

Drive drive(Rig& rig, const Inputs& inputs, bool time_submits,
            WallSpans& spans, Forge forge = Forge::kNone) {
  const char* layer = rig.client ? "rpc" : "core";
  Drive d;
  core::SessionTransport& transport = rig.transport();
  const Clock::time_point start = Clock::now();
  std::vector<std::uint64_t> streams;
  {
    ScopedSpan span(spans, "open_session", layer);
    for (const core::SessionConfig& config : inputs.sessions) {
      core::Result<std::uint64_t> opened = transport.open_session(config);
      if (!opened) {
        d.ok = false;
        return d;
      }
      streams.push_back(*opened);
    }
  }
  if (time_submits) d.submit_us.reserve(inputs.stream.size());
  constexpr std::size_t kBatch = 4096;
  for (std::size_t first = 0; first < inputs.stream.size(); first += kBatch) {
    ScopedSpan span(spans, "submit_batch", layer);
    const std::size_t last = std::min(inputs.stream.size(), first + kBatch);
    for (std::size_t i = first; i < last; ++i) {
      if (time_submits) {
        const Clock::time_point t = Clock::now();
        transport.submit(streams[inputs.slot[i]], inputs.stream[i]);
        d.submit_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t)
                .count());
      } else {
        transport.submit(streams[inputs.slot[i]], inputs.stream[i]);
      }
    }
  }
  const Clock::time_point close_start = Clock::now();
  d.outcomes.reserve(inputs.stream.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    ScopedSpan span(spans, i == 0 ? "close_drain" : "close", layer);
    std::vector<core::RequestOutcome> closed = transport.close(streams[i]);
    if (i == 0 && !closed.empty()) {
      if (forge == Forge::kDrop) closed.pop_back();
      if (forge == Forge::kDuplicate) closed.push_back(closed.back());
    }
    for (core::RequestOutcome& outcome : closed) {
      d.outcomes.push_back(std::move(outcome));
    }
    if (i == 0) d.drain_s = seconds_since(close_start);
  }
  d.close_s = seconds_since(close_start);
  {
    ScopedSpan span(spans, "summarize_load", "core");
    const Clock::time_point t = Clock::now();
    (void)core::summarize_load(d.outcomes);
    d.summarize_ms = seconds_since(t) * 1e3;
  }
  {
    ScopedSpan span(spans, "metrics_export", "obs");
    const Clock::time_point t = Clock::now();
    d.metrics_json = rig.export_metrics();
    d.export_ms = seconds_since(t) * 1e3;
  }
  d.wall_s = seconds_since(start);
  d.ok = d.ok && !d.metrics_json.empty();
  d.half_wall_ratio = half_wall_ratio(rig.stamps.since(close_start));
  std::vector<std::uint8_t> seen(inputs.stream.size(), 0);
  for (const core::RequestOutcome& outcome : d.outcomes) {
    const std::size_t sequence = outcome.request.sequence;
    if (sequence >= seen.size()) {
      ++d.stray;
    } else if (seen[sequence] != 0) {
      ++d.duplicates;
    } else {
      seen[sequence] = 1;
    }
  }
  d.missing = static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 0));
  return d;
}

/// One drive on a fresh rig under its own span; `inspect` sees the rig
/// after the drive and shutdown.  nullopt if the socket path fails.
std::optional<Drive> fresh_drive(
    const core::PlatformConfig& config, bool rpc, bool trace,
    const Inputs& inputs, bool time_submits, WallSpans& spans,
    std::string_view name, const std::function<void(Rig&)>& inspect = {}) {
  ScopedSpan span(spans, name, "bench");
  std::unique_ptr<Rig> rig = make_rig(config, rpc, trace, inputs.stream.size());
  if (rig == nullptr) return std::nullopt;
  Drive d = drive(*rig, inputs, time_submits, spans);
  rig->shutdown();
  if (inspect) inspect(*rig);
  return d;
}

// -- Outcome reductions -------------------------------------------------

bool policy_reject(core::RejectReason reason) {
  switch (reason) {
    case core::RejectReason::kAccessDenied:
    case core::RejectReason::kQueueFull:
    case core::RejectReason::kRateLimited:
    case core::RejectReason::kOverloaded:
    case core::RejectReason::kQuotaExceeded:
      return true;
    default:
      return false;
  }
}

/// Accounting, virtual-time results and virtual phase means of a drive.
std::string outcome_json(const std::vector<core::RequestOutcome>& outcomes,
                         std::size_t submitted) {
  std::size_t completed = 0, rejected = 0, failed = 0;
  std::size_t shed = 0, recovered = 0;
  std::map<std::string, std::size_t> failed_by_reason;
  std::array<std::array<std::size_t, 2>, core::qos::kClassCount> classes{};
  std::array<std::vector<double>, core::qos::kClassCount> class_wait_ms;
  std::vector<double> responses_ms;
  double first_arrival = 0, last_completion = 0;
  double connect = 0, wait = 0, prep = 0, transfer = 0, compute = 0;
  bool first = true;
  for (const core::RequestOutcome& o : outcomes) {
    const double arrival = sim::to_seconds(o.request.arrival);
    first_arrival = first ? arrival : std::min(first_arrival, arrival);
    first = false;
    auto& klass = classes[core::qos::class_index(o.qos_class)];
    if (o.rejected) {
      ++rejected;
      ++klass[1];
      if (policy_reject(o.reject_reason)) {
        ++shed;
      } else {
        ++failed;
        ++failed_by_reason[core::to_string(o.reject_reason)];
      }
      continue;
    }
    ++completed;
    ++klass[0];
    if (o.recovered) ++recovered;
    last_completion = std::max(last_completion, sim::to_seconds(o.completed_at));
    responses_ms.push_back(sim::to_millis(o.response));
    class_wait_ms[core::qos::class_index(o.qos_class)].push_back(
        sim::to_millis(o.queue_wait));
    connect += sim::to_millis(o.phases.network_connection);
    wait += sim::to_millis(o.queue_wait);
    prep += sim::to_millis(o.phases.runtime_preparation);
    transfer += sim::to_millis(o.phases.data_transfer);
    compute += sim::to_millis(o.phases.computation);
  }
  const double n = static_cast<double>(completed);
  const double offered = static_cast<double>(submitted);
  JsonObject class_json;
  JsonObject wait_json;
  JsonObject reason_json;
  for (const auto& [reason, count] : failed_by_reason) {
    reason_json.count(reason, count);
  }
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const std::size_t i = core::qos::class_index(klass);
    class_json.raw(core::qos::to_string(klass),
                   JsonObject()
                       .count("completed", classes[i][0])
                       .count("rejected", classes[i][1])
                       .done());
    wait_json.pct(core::qos::to_string(klass),
                  percentile_of(class_wait_ms[i], 0.99));
  }
  std::sort(responses_ms.begin(), responses_ms.end());
  return JsonObject()
      .count("completed", completed)
      .count("rejected", rejected)
      .count("failed", failed)
      .raw("failed_by_reason", reason_json.done())
      .count("recovered", recovered)
      .raw("classes", class_json.done())
      .pct("virt_p50_ms", percentile(responses_ms, 0.50))
      .pct("virt_p99_ms", percentile(responses_ms, 0.99))
      .num("virt_goodput_per_s", ratio(n, last_completion - first_arrival))
      .num("reject_share", ratio(static_cast<double>(rejected), offered))
      .num("served_share", ratio(n, offered))
      .num("shed_share", ratio(static_cast<double>(shed), offered))
      .raw("queue_wait_p99_ms", wait_json.done())
      .raw("phase_ms", JsonObject()
                           .num("connect", ratio(connect, n))
                           .num("queue_wait", ratio(wait, n))
                           .num("prep", ratio(prep, n))
                           .num("transfer", ratio(transfer, n))
                           .num("compute", ratio(compute, n))
                           .done())
      .done();
}

/// Two ledgers for the accounting checks in run.py: the benchmark's own
/// (what it submitted per class, and how the closes returned it) and the
/// platform's session counters from the drive's exported metrics.
std::string accounting_json(const Drive& d, const Inputs& inputs) {
  std::array<std::size_t, core::qos::kClassCount> submitted{};
  for (const std::uint32_t slot : inputs.slot) {
    ++submitted[core::qos::class_index(inputs.sessions[slot].priority)];
  }
  JsonObject by_class;
  JsonObject platform_classes;
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const std::string name = core::qos::to_string(klass);
    by_class.count(name, submitted[core::qos::class_index(klass)]);
    platform_classes.raw(
        name,
        JsonObject()
            .count("offered", json_counter(d.metrics_json, "qos.offered." + name))
            .count("completed",
                   json_counter(d.metrics_json, "qos.completed." + name))
            .count("rejected",
                   json_counter(d.metrics_json, "qos.rejected." + name))
            .done());
  }
  return JsonObject()
      .count("submitted", inputs.stream.size())
      .count("returned", d.outcomes.size())
      .count("missing", d.missing)
      .count("duplicates", d.duplicates)
      .count("stray", d.stray)
      .raw("submitted_by_class", by_class.done())
      .raw("platform",
           JsonObject()
               .count("offered", json_counter(d.metrics_json, "sessions.offered"))
               .count("completed",
                      json_counter(d.metrics_json, "sessions.completed"))
               .count("rejected",
                      json_counter(d.metrics_json, "sessions.rejected"))
               .raw("classes", platform_classes.done())
               .done())
      .done();
}

/// Per-layer counts read through the platform's public accessors.
std::string platform_json(core::Platform& platform, std::size_t offered,
                          double drive_s) {
  const double events =
      static_cast<double>(platform.server().simulator().events_fired());
  const obs::Histogram* provision =
      platform.metrics().find_histogram("env.provision_ms");
  const sim::FaultInjector* faults = platform.fault_injector();
  return JsonObject()
      .num("sim.events", events)
      .num("sim.events_per_session", ratio(events, static_cast<double>(offered)))
      .num("sim.host_ns_per_event", ratio(drive_s * 1e9, events))
      .count("core.envs_final", platform.env_count())
      .num("core.dispatch.new_env_ratio",
           ratio(counter(platform, "dispatcher.assign.new_env"),
                 counter(platform, "dispatcher.assign.total")))
      .num("core.dispatch.affinity_hit_ratio",
           ratio(counter(platform, "dispatcher.affinity.hits"),
                 counter(platform, "dispatcher.affinity.hits") +
                     counter(platform, "dispatcher.affinity.misses")))
      .num("core.elastic.warm_hit_ratio",
           ratio(counter(platform, "elastic.warm_hits"),
                 counter(platform, "elastic.warm_hits") +
                     counter(platform, "elastic.cold_boots")))
      .count("core.elastic.prewarmed", counter(platform, "elastic.prewarmed"))
      .count("core.invariant.checks", platform.invariants().checks_run())
      .count("core.invariant.violations",
             platform.invariants().total_violations())
      .count("cac.provisioned", counter(platform, "env.provisioned"))
      .num("cac.provision_virt_p50_ms",
           provision != nullptr ? provision->quantile(0.5) : 0.0)
      .count("faults_fired", faults != nullptr ? faults->total_fired() : 0)
      .done();
}

// -- Probes (traced run) ------------------------------------------------

/// Median wall of `probe` over `reps` calls, each on fresh state from
/// `prepare` (untimed).
template <typename Prepare, typename Probe>
double median_ms(int reps, Prepare prepare, Probe probe) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    auto state = prepare();
    const Clock::time_point t = Clock::now();
    probe(state);
    ms.push_back(seconds_since(t) * 1e3);
  }
  return percentile_of(ms, 0.5).value;
}

/// Re-encodes and decodes the run's requests and outcomes through the
/// public wire codec; wall per session in microseconds, or -1 when a
/// round trip does not reproduce its input.
double codec_us_per_session(const Inputs& inputs,
                            const std::vector<core::RequestOutcome>& outcomes) {
  constexpr std::size_t kSkip = rpc::kFrameHeaderBytes + 1;  // prefix + opcode
  std::vector<std::uint8_t> frame;
  bool ok = true;
  const Clock::time_point t = Clock::now();
  for (const workloads::OffloadRequest& request : inputs.stream) {
    frame.clear();
    rpc::encode_submit(1, request, frame);
    const auto decoded =
        rpc::decode_submit(frame.data() + kSkip, frame.size() - kSkip);
    ok = ok && decoded.ok() &&
         decoded.value.request.sequence == request.sequence;
  }
  for (std::size_t first = 0; first < outcomes.size();
       first += rpc::kResultChunkCap) {
    const std::size_t count =
        std::min(rpc::kResultChunkCap, outcomes.size() - first);
    frame.clear();
    rpc::encode_result_chunk(outcomes, first, count, frame);
    const auto decoded =
        rpc::decode_result_chunk(frame.data() + kSkip, frame.size() - kSkip);
    ok = ok && decoded.ok() && decoded.value.size() == count;
  }
  const double us = seconds_since(t) * 1e6;
  return ok ? ratio(us, static_cast<double>(inputs.stream.size())) : -1;
}

/// Mean virtual self time per session of each platform trace phase.
std::string trace_phase_json(const obs::TraceRecorder& trace,
                             std::size_t offered) {
  std::map<std::string, double> total_ms;
  for (const obs::SpanRecord& span : trace.spans()) {
    if (span.category != "phase" || span.end < 0) continue;
    total_ms[span.name] += sim::to_millis(span.end - span.start);
  }
  JsonObject out;
  for (const auto& [name, ms] : total_ms) {
    out.num(name, ratio(ms, static_cast<double>(offered)));
  }
  return out.done();
}

// -- Host-speed reference -------------------------------------------------

volatile double g_reference_sink = 0;

/// Wall of the host-speed reference: LU factorisation with partial
/// pivoting of eight seeded random 480x480 matrices, the shape of the
/// linpack kernel the workloads run.  It is the benchmark's own copy, so
/// no change under src/ moves it.  A shared host's speed drifts by
/// 20-40% over tens of seconds and this kernel drifts with the
/// simulator's wall time, so run.py scales the wall-clock metrics by it
/// (README.md).
double reference_ms() {
  constexpr std::size_t n = 480;
  std::vector<double> a(n * n);
  double total_ms = 0;
  double sink = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL;
    for (double& v : a) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<double>(x >> 11) * 0x1.0p-53 - 0.5;
    }
    const Clock::time_point t = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t p = k;
      for (std::size_t i = k + 1; i < n; ++i) {
        if (std::fabs(a[i * n + k]) > std::fabs(a[p * n + k])) p = i;
      }
      if (p != k) {
        std::swap_ranges(a.begin() + static_cast<std::ptrdiff_t>(k * n),
                         a.begin() + static_cast<std::ptrdiff_t>(k * n + n),
                         a.begin() + static_cast<std::ptrdiff_t>(p * n));
      }
      const double diag = a[k * n + k];
      if (diag == 0.0) continue;
      for (std::size_t i = k + 1; i < n; ++i) {
        const double mult = a[i * n + k] / diag;
        for (std::size_t j = k + 1; j < n; ++j) {
          a[i * n + j] -= mult * a[k * n + j];
        }
      }
    }
    total_ms += seconds_since(t) * 1e3;
    sink += a[n * n - 1];
  }
  g_reference_sink = sink;
  return total_ms;
}

// -- Self-test ------------------------------------------------------------

int selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  std::vector<double> linear, quadratic;
  for (int i = 1; i <= 1000; ++i) {
    linear.push_back(0.002 * i);
    quadratic.push_back(1e-6 * i * i);
  }
  expect(std::fabs(half_wall_ratio(linear) - 1.0) < 0.01,
         "half_wall_ratio reads 1.0 for linear cost");
  expect(std::fabs(half_wall_ratio(quadratic) - 3.0) < 0.01,
         "half_wall_ratio reads 3.0 for quadratic cost");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Percentile p99 = percentile(hundred, 0.99);
  expect(p99.value == 99 && p99.beyond == 1 && p99.n == 100,
         "nearest-rank p99 of 1..100 is 99 with 1 sample beyond");
  expect(percentile(hundred, 0.5).value == 50, "nearest-rank p50 is 50");
  for (const char* name :
       {"cold-fleet", "warm-qos", "rpc-wire", "fault-elastic"}) {
    expect(make_workload(name, 1).has_value(), name);
  }
  expect(!make_workload("nope", 1).has_value(), "unknown workload refused");
  return failures == 0 ? 0 : 1;
}

// -- Main -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool twin = false;
  Forge forge = Forge::kNone;
  std::string spans_out;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--traced") {
      args.traced = true;
    } else if (arg == "--twin") {
      args.twin = true;
    } else if (arg == "--workload" && value != nullptr) {
      args.workload = value;
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      char* end = nullptr;
      args.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') return false;
      ++i;
    } else if (arg == "--spans-out" && value != nullptr) {
      args.spans_out = value;
      ++i;
    } else if (arg == "--forge-outcome" && value != nullptr) {
      const std::string forge = value;
      if (forge == "drop") {
        args.forge = Forge::kDrop;
      } else if (forge == "duplicate") {
        args.forge = Forge::kDuplicate;
      } else {
        return false;
      }
      ++i;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

std::string build_json() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const std::string sanitize = E2E_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = !sanitize.empty();
#endif
  return JsonObject()
      .str("type", E2E_BUILD_TYPE)
      .flag("optimized", optimized)
      .flag("sanitized", sanitized)
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") return selftest();
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: session_bench --workload NAME --seed N [--traced] "
                 "[--twin] [--spans-out FILE] "
                 "[--forge-outcome drop|duplicate] | --selftest\n");
    return 2;
  }
  const std::optional<Workload> found = make_workload(args.workload, args.seed);
  if (!found) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  WallSpans spans(args.traced);
  JsonObject result;
  result.str("workload", w.name).count("seed", args.seed).raw("build",
                                                               build_json());

  // -- Setup: inputs, kernel memo, platform (+ socket path) -------------
  const Clock::time_point setup_start = Clock::now();
  std::optional<ScopedSpan> setup_span;
  setup_span.emplace(spans, "setup", "bench");
  Inputs inputs;
  double arrivals_ms = 0;
  {
    ScopedSpan span(spans, "make_arrivals", "sim");
    const Clock::time_point t = Clock::now();
    const std::vector<sim::Arrival> arrivals =
        sim::make_arrivals(w.load.loadgen);
    arrivals_ms = seconds_since(t) * 1e3;
    for (const sim::Arrival& arrival : arrivals) {
      inputs.slot.push_back(arrival.mix_index);
    }
  }
  {
    ScopedSpan span(spans, "make_load_stream", "core");
    inputs.stream = core::make_load_stream(w.load);
    const std::size_t slots =
        std::max<std::size_t>(1, w.load.loadgen.mix.size());
    for (std::size_t i = 0; i < slots; ++i) {
      inputs.sessions.push_back(core::mix_session_config(w.load.loadgen, i));
    }
  }
  if (inputs.stream.size() != inputs.slot.size() ||
      std::any_of(inputs.slot.begin(), inputs.slot.end(),
                  [&](std::uint32_t s) { return s >= inputs.sessions.size(); })) {
    std::fprintf(stderr, "stream and arrival schedule disagree\n");
    return 1;
  }
  // Warm the process-wide kernel memo once per distinct task, so the
  // real kernels are not counted as session work.
  std::set<std::tuple<int, std::uint64_t, std::uint32_t>> distinct;
  double kernel_ms = 0;
  for (const workloads::OffloadRequest& request : inputs.stream) {
    const workloads::TaskSpec& task = request.task;
    if (!distinct.emplace(static_cast<int>(task.kind), task.seed,
                          task.size_class)
             .second) {
      continue;
    }
    ScopedSpan span(spans, "execute_task_cached", "workloads");
    const Clock::time_point t = Clock::now();
    (void)workloads::execute_task_cached(task);
    kernel_ms += seconds_since(t) * 1e3;
  }
  std::unique_ptr<Rig> rig;
  {
    ScopedSpan span(spans, w.rpc ? "platform+server+connect" : "platform",
                    w.rpc ? "rpc" : "core");
    rig = make_rig(w.platform, w.rpc, false, inputs.stream.size());
  }
  setup_span.reset();
  const double setup_s = seconds_since(setup_start);
  if (rig == nullptr) {
    std::fprintf(stderr, "cannot start the loopback rpc server\n");
    return 1;
  }

  // -- Drive (tracing off) ------------------------------------------------
  const double reference = reference_ms();
  Drive timed;
  {
    ScopedSpan span(spans, "drive", "bench");
    timed = drive(*rig, inputs, false, spans, args.forge);
  }
  const std::string rpc_metrics = rig->shutdown();
  const double rss_mb = peak_rss_mb();
  result.num("setup_s", setup_s)
      .num("drive_s", timed.wall_s)
      .num("drain_s", timed.drain_s)
      .num("close_s", timed.close_s)
      .num("summarize_ms", timed.summarize_ms)
      .num("export_ms", timed.export_ms)
      .num("half_wall_ratio", timed.half_wall_ratio)
      .num("peak_rss_mb", rss_mb)
      .num("reference_ms", reference)
      .flag("drive_ok", timed.ok)
      .str("fingerprint", fingerprint(timed.metrics_json))
      .raw("accounting", accounting_json(timed, inputs))
      .raw("outcomes", outcome_json(timed.outcomes, inputs.stream.size()))
      .raw("platform", platform_json(*rig->platform, inputs.stream.size(),
                                     timed.wall_s))
      .raw("setup", JsonObject()
                        .num("arrivals_ms", arrivals_ms)
                        .num("kernel_ms", kernel_ms)
                        .count("variants", distinct.size())
                        .done());
  if (w.rpc) {
    const double offered = static_cast<double>(inputs.stream.size());
    result.raw(
        "wire",
        JsonObject()
            .num("bytes_per_session",
                 ratio(static_cast<double>(
                           json_counter(rpc_metrics, "rpc.bytes.in") +
                           json_counter(rpc_metrics, "rpc.bytes.out")),
                       offered))
            .num("frames_per_session",
                 ratio(static_cast<double>(
                           json_counter(rpc_metrics, "rpc.frames.in") +
                           json_counter(rpc_metrics, "rpc.frames.out")),
                       offered))
            .done());
  }
  rig.reset();

  // Every drive below runs on a fresh rig after the timed one, so none
  // pays the process's cold start, and only the drives that report
  // per-submit timings take them: the walls in each ratio compare like
  // with like.
  const auto socket_failed = [] {
    std::fprintf(stderr, "cannot start the loopback rpc server\n");
    return 1;
  };

  // -- Sim twin of the socket path (rpc-wire) ---------------------------
  std::optional<Drive> twin;
  if (w.rpc && (args.twin || args.traced)) {
    twin = fresh_drive(w.platform, false, false, inputs, false, spans,
                       "sim_twin");
    result.raw("twin",
               JsonObject()
                   .str("fingerprint", fingerprint(twin->metrics_json))
                   .flag("metrics_identical",
                         twin->metrics_json == timed.metrics_json)
                   .done());
  }

  if (args.traced) {
    const std::optional<Drive> baseline = fresh_drive(
        w.platform, w.rpc, false, inputs, false, spans, "baseline_drive");
    // -- Traced drive: platform trace on ---------------------------------
    JsonObject layers;
    const std::optional<Drive> traced = fresh_drive(
        w.platform, w.rpc, true, inputs, false, spans, "traced_drive",
        [&](Rig& traced_rig) {
          const obs::TraceRecorder& trace = traced_rig.platform->trace();
          ScopedSpan span(spans, "trace_export", "obs");
          const Clock::time_point t = Clock::now();
          const std::string chrome = trace.to_chrome_json();
          layers.num("obs.trace_export_ms", seconds_since(t) * 1e3)
              .num("obs.trace_spans", static_cast<double>(trace.span_count()))
              .raw("trace_phase_ms",
                   trace_phase_json(trace, inputs.stream.size()));
        });
    if (!baseline || !traced) return socket_failed();
    layers.str("fingerprint", fingerprint(traced->metrics_json))
        .num("obs.trace_overhead_ratio", ratio(traced->wall_s, baseline->wall_s));

    // -- Per-submit timings ----------------------------------------------
    // On rpc-wire the platform-side calls happen on the server's worker,
    // so core.* is always timed on the sim path.
    const std::optional<Drive> core_timed = fresh_drive(
        w.platform, false, false, inputs, true, spans, "core_timed_drive");
    layers.num("core.submit_us.p50", percentile_of(core_timed->submit_us, 0.5).value)
        .num("core.submit_us.p99", percentile_of(core_timed->submit_us, 0.99).value)
        .num("core.drain_s", core_timed->drain_s)
        .num("core.summarize_ms", core_timed->summarize_ms);
    if (w.rpc) {
      const std::optional<Drive> rpc_timed = fresh_drive(
          w.platform, true, false, inputs, true, spans, "rpc_timed_drive");
      if (!rpc_timed) return socket_failed();
      layers.num("rpc.submit_us.p50", percentile_of(rpc_timed->submit_us, 0.5).value)
          .num("rpc.submit_us.p99",
               percentile_of(rpc_timed->submit_us, 0.99).value)
          .num("rpc.close_s", baseline->close_s)
          .num("rpc.codec_us_per_session",
               codec_us_per_session(inputs, timed.outcomes))
          .num("rpc.wire_share", 1.0 - ratio(twin->wall_s, baseline->wall_s));
    }

    // -- Ablation: the invariant oracle off (fault-elastic) -------------
    if (w.platform.check_invariants && !w.platform.fault_plan.empty()) {
      core::PlatformConfig config = w.platform;
      config.check_invariants = false;
      const std::optional<Drive> ablated = fresh_drive(
          config, false, false, inputs, false, spans, "ablation_no_oracle");
      layers.num("core.invariant_share",
                 1.0 - ratio(ablated->wall_s, baseline->wall_s));
    }

    // -- Probes ----------------------------------------------------------
    {
      ScopedSpan span(spans, "measure_provision", "cac");
      layers.num("cac.provision_host_ms",
                 median_ms(
                     5,
                     [&w] { return std::make_unique<core::Platform>(w.platform); },
                     [](std::unique_ptr<core::Platform>& p) {
                       (void)p->measure_provision();
                     }));
    }
    {
      ScopedSpan span(spans, "layer_digest", "container");
      core::Platform probe(w.platform);
      const auto layer = probe.server().shared_layer().system_layer();
      layers.num("container.layer_digest_us",
                 median_ms(
                     9, [] { return 0; },
                     [&](int) { (void)container::layer_digest(*layer); }) *
                     1e3);
    }
    result.raw("traced", layers.done());

    JsonObject self;  // every span has closed by now
    for (const auto& [layer, ms] : spans.self_ms_by_layer()) {
      self.num(layer, ms);
    }
    result.raw("span_self_ms", self.done());
  }

  if (!args.spans_out.empty() &&
      !obs::write_text_file(args.spans_out, spans.recorder.to_chrome_json())) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
    return 1;
  }
  std::printf("%s\n", result.done().c_str());
  return 0;
}
