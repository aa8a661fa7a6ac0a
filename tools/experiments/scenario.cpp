#include "scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string_view>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "core/qos/qos.hpp"
#include "net/link.hpp"
#include "obs/json.hpp"
#include "sim/fault.hpp"
#include "trace/livelab.hpp"

#include "../cli_util.hpp"

namespace rattrap::experiments {

namespace {

/// Every manifest key the executor understands.  Validated up front so a
/// typo'd key fails the run instead of silently running defaults — the
/// same teeth the strict CLI parsers give the flag surface.
const std::set<std::string_view>& known_keys() {
  static const std::set<std::string_view> keys = {
      "scenario",    "quick",
      "arrival",     "platform",   "link",
      "devices",     "requests",   "rate",
      "burst_factor", "mean_burst_s", "mean_calm_s",
      "think",       "profile",    "profile_period", "profile_peak",
      "flash_at",    "flash_duration", "flash_factor",
      "trace_file",  "trace_users", "trace_days",
      "trace_sessions_per_day",     "trace_seed",
      "trace_scale", "trace_repeat",
      "kind",        "task_variants", "seed",
      "admission",   "queue",      "max_in_service",
      "tenant_rate", "shed",       "qos",  "mix",
      "rac",         "rac_threshold", "rac_block_s", "rac_quota",
      "tenant_queue_quota",
      "elastic",     "elastic_target", "elastic_max",
      "faults",      "storm_crashes", "storm_at", "storm_spacing",
      "handoff",     "invariants", "adaptive",
      "crash_recovery",
  };
  return keys;
}

bool parse_link(const std::string& v, net::LinkConfig& out) {
  if (v == "lan" || v == "wifi") out = net::lan_wifi();
  else if (v == "wan") out = net::wan_wifi();
  else if (v == "3g") out = net::cellular_3g();
  else if (v == "4g") out = net::cellular_4g();
  else return false;
  return true;
}

bool parse_on_off(const std::string& v, bool& out) {
  if (v == "on" || v == "true" || v == "1") out = true;
  else if (v == "off" || v == "false" || v == "0") out = false;
  else return false;
  return true;
}

bool parse_adversary(const std::string& v, sim::AdversaryProfile& out) {
  if (v == "none") out = sim::AdversaryProfile::kNone;
  else if (v == "probe") out = sim::AdversaryProfile::kPermissionProbe;
  else if (v == "flood") out = sim::AdversaryProfile::kClassFlood;
  else if (v == "thrash") out = sim::AdversaryProfile::kCacheThrash;
  else if (v == "noisy") out = sim::AdversaryProfile::kNoisyNeighbor;
  else return false;
  return true;
}

/// "tenant:class[:weight[:share[:adversary]]]" entries separated by ';';
/// adversary is none|probe|flood|thrash|noisy (docs/RAC.md).
bool parse_mix(const std::string& spec,
               std::vector<sim::TrafficClassMix>& out) {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i != spec.size() && spec[i] != ';') continue;
    const std::string entry = spec.substr(start, i - start);
    start = i + 1;
    if (entry.empty()) return false;
    std::vector<std::string> parts;
    std::string current;
    for (const char c : entry) {
      if (c == ':') {
        parts.push_back(current);
        current.clear();
      } else {
        current.push_back(c);
      }
    }
    parts.push_back(current);
    if (parts.size() < 2 || parts.size() > 5) return false;
    sim::TrafficClassMix mix;
    mix.tenant = parts[0];
    const auto klass = core::qos::parse_class(parts[1]);
    if (!klass) return false;
    mix.priority =
        static_cast<std::uint8_t>(core::qos::class_index(*klass));
    if (parts.size() > 2 &&
        (!cli::parse_u32(parts[2], mix.weight) || mix.weight == 0)) {
      return false;
    }
    if (parts.size() > 3 &&
        (!cli::parse_double(parts[3], mix.share) || mix.share <= 0)) {
      return false;
    }
    if (parts.size() > 4 && !parse_adversary(parts[4], mix.adversary)) {
      return false;
    }
    out.push_back(std::move(mix));
  }
  return !out.empty();
}

/// "radio:at_s[:outage_s]" entries separated by ';'.
bool parse_handoffs(const std::string& spec,
                    std::vector<core::HandoffEvent>& out) {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i != spec.size() && spec[i] != ';') continue;
    const std::string entry = spec.substr(start, i - start);
    start = i + 1;
    if (entry.empty()) return false;
    std::vector<std::string> parts;
    std::string current;
    for (const char c : entry) {
      if (c == ':') {
        parts.push_back(current);
        current.clear();
      } else {
        current.push_back(c);
      }
    }
    parts.push_back(current);
    if (parts.size() < 2 || parts.size() > 3) return false;
    core::HandoffEvent event;
    if (!parse_link(parts[0], event.to)) return false;
    double at_s = 0;
    if (!cli::parse_double(parts[1], at_s) || at_s < 0) return false;
    event.at = sim::from_seconds(at_s);
    if (parts.size() > 2) {
      double outage_s = 0;
      if (!cli::parse_double(parts[2], outage_s) || outage_s < 0) {
        return false;
      }
      event.outage = sim::from_seconds(outage_s);
    }
    out.push_back(std::move(event));
  }
  return !out.empty();
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

std::uint64_t fingerprint64(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

const double* RunResult::metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::string RunResult::to_kv() const {
  std::string out;
  for (const auto& [key, value] : metrics) {
    out += "m." + key + "=" + obs::json_number(value) + "\n";
  }
  for (const auto& [key, value] : info) {
    out += "i." + key + "=" + value + "\n";
  }
  out += "ok=1\n";
  return out;
}

std::string RunResult::to_json(const RunSpec& spec) const {
  std::string out = "{\n  \"experiment\": " + obs::json_quote(spec.experiment);
  out += ",\n  \"label\": " + obs::json_quote(spec.label);
  out += ",\n  \"params\": {";
  bool first = true;
  for (const auto& [key, value] : spec.params) {
    out += first ? "\n" : ",\n";
    out += "    " + obs::json_quote(key) + ": " + obs::json_quote(value);
    first = false;
  }
  out += "\n  },\n  \"metrics\": {";
  first = true;
  for (const auto& [key, value] : metrics) {
    out += first ? "\n" : ",\n";
    out += "    " + obs::json_quote(key) + ": " + obs::json_number(value);
    first = false;
  }
  out += "\n  },\n  \"info\": {";
  first = true;
  for (const auto& [key, value] : info) {
    out += first ? "\n" : ",\n";
    out += "    " + obs::json_quote(key) + ": " + obs::json_quote(value);
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

RunResult execute_run(const RunSpec& spec) {
  RunResult result;
  const auto fail = [&](const std::string& what) {
    result.ok = false;
    result.error = "[" + spec.experiment + "/" + spec.label + "] " + what;
    return result;
  };

  for (const auto& [key, value] : spec.params) {
    (void)value;
    if (known_keys().count(key) == 0) {
      return fail("unknown manifest key '" + key + "'");
    }
  }

  const auto get = [&](const char* key) -> const std::string* {
    const auto it = spec.params.find(key);
    return it == spec.params.end() ? nullptr : &it->second;
  };
  // Absent keys keep the default (return true); present keys must parse.
  std::string parse_error;
  const auto get_double = [&](const char* key, double& out) {
    const std::string* v = get(key);
    if (v == nullptr) return true;
    if (!cli::parse_double(*v, out)) {
      parse_error = std::string("bad numeric value for '") + key + "'";
      return false;
    }
    return true;
  };
  const auto get_u32 = [&](const char* key, std::uint32_t& out) {
    const std::string* v = get(key);
    if (v == nullptr) return true;
    if (!cli::parse_u32(*v, out)) {
      parse_error = std::string("bad integer value for '") + key + "'";
      return false;
    }
    return true;
  };
  const auto get_u64 = [&](const char* key, std::uint64_t& out) {
    const std::string* v = get(key);
    if (v == nullptr) return true;
    if (!cli::parse_u64(*v, out)) {
      parse_error = std::string("bad integer value for '") + key + "'";
      return false;
    }
    return true;
  };

  // -- Platform ----------------------------------------------------------
  core::PlatformKind kind = core::PlatformKind::kRattrap;
  if (const std::string* v = get("platform")) {
    if (*v == "rattrap") kind = core::PlatformKind::kRattrap;
    else if (*v == "rattrap-noopt") kind = core::PlatformKind::kRattrapWithoutOpt;
    else if (*v == "vmcloud") kind = core::PlatformKind::kVmCloud;
    else return fail("unknown platform '" + *v + "'");
  }
  net::LinkConfig link = net::lan_wifi();
  if (const std::string* v = get("link")) {
    if (!parse_link(*v, link)) return fail("unknown link '" + *v + "'");
  }
  core::PlatformConfig platform_config = core::make_config(kind, link);

  // -- Load --------------------------------------------------------------
  core::LoadDriverConfig driver;
  sim::LoadGenConfig& loadgen = driver.loadgen;
  loadgen.devices = 100;
  loadgen.requests = 500;
  if (const std::string* v = get("arrival")) {
    if (!cli::parse_arrival(v->c_str(), loadgen.arrival)) {
      return fail("unknown arrival '" + *v + "'");
    }
  }
  std::uint64_t requests = loadgen.requests;
  if (!get_u32("devices", loadgen.devices) || !get_u64("requests", requests) ||
      !get_double("rate", loadgen.rate_per_s) ||
      !get_double("burst_factor", loadgen.burst_factor) ||
      !get_double("mean_burst_s", loadgen.mean_burst_s) ||
      !get_double("mean_calm_s", loadgen.mean_calm_s) ||
      !get_double("think", loadgen.think_time_s) ||
      !get_double("profile_period", loadgen.profile_period_s) ||
      !get_double("profile_peak", loadgen.profile_peak_factor) ||
      !get_double("flash_at", loadgen.flash_at_s) ||
      !get_double("flash_duration", loadgen.flash_duration_s) ||
      !get_double("flash_factor", loadgen.flash_factor) ||
      !get_double("trace_scale", loadgen.trace_time_scale) ||
      !get_u32("trace_repeat", loadgen.trace_repeat) ||
      !get_u64("seed", loadgen.seed)) {
    return fail(parse_error);
  }
  loadgen.requests = requests;
  if (loadgen.devices == 0 || loadgen.requests == 0) {
    return fail("devices and requests must be > 0");
  }
  if (loadgen.trace_time_scale <= 0) return fail("trace_scale must be > 0");
  if (const std::string* v = get("profile")) {
    if (!cli::parse_profile(v->c_str(), loadgen.profile)) {
      return fail("unknown profile '" + *v + "'");
    }
  }
  if (const std::string* v = get("mix")) {
    if (!parse_mix(*v, loadgen.mix)) return fail("bad mix spec '" + *v + "'");
  }

  // -- Trace source ------------------------------------------------------
  if (loadgen.arrival == sim::ArrivalProcess::kTraceReplay) {
    if (const std::string* v = get("trace_file")) {
      const auto loaded = trace::load_csv(*v);
      if (!loaded) return fail("cannot load trace '" + *v + "'");
      loadgen.trace.reserve(loaded->size());
      for (const trace::TraceEvent& event : *loaded) {
        loadgen.trace.push_back(sim::TraceArrival{event.time, event.user});
      }
    } else {
      trace::TraceConfig trace_config;
      std::uint64_t trace_seed = trace_config.seed;
      if (!get_u32("trace_users", trace_config.users) ||
          !get_u32("trace_days", trace_config.days) ||
          !get_double("trace_sessions_per_day",
                      trace_config.sessions_per_day) ||
          !get_u64("trace_seed", trace_seed)) {
        return fail(parse_error);
      }
      trace_config.seed = trace_seed;
      for (const trace::TraceEvent& event :
           trace::generate(trace_config)) {
        loadgen.trace.push_back(sim::TraceArrival{event.time, event.user});
      }
    }
    if (loadgen.trace.empty()) return fail("trace has no events");
  }

  // -- Workload ----------------------------------------------------------
  if (const std::string* v = get("kind")) {
    if (!cli::parse_kind(v->c_str(), driver.kind)) {
      return fail("unknown kind '" + *v + "'");
    }
  }
  if (!get_u32("task_variants", driver.task_variants)) {
    return fail(parse_error);
  }

  // -- Admission / QoS ---------------------------------------------------
  core::AdmissionConfig& admission = platform_config.admission;
  if (const std::string* v = get("admission")) {
    if (!parse_on_off(*v, admission.enabled)) {
      return fail("admission must be on|off");
    }
  }
  if (const std::string* v = get("qos")) {
    if (!parse_on_off(*v, admission.qos.enabled)) {
      return fail("qos must be on|off");
    }
    if (admission.qos.enabled) admission.enabled = true;
  }
  if (!get_u32("queue", admission.queue_capacity) ||
      !get_u32("max_in_service", admission.max_in_service) ||
      !get_double("tenant_rate", admission.tenant_rate_per_s) ||
      !get_double("shed", admission.shed_utilization) ||
      !get_u32("tenant_queue_quota", admission.tenant_queue_quota)) {
    return fail(parse_error);
  }

  // -- Request-based Access Controller (docs/RAC.md) ---------------------
  core::AccessConfig& access = platform_config.access;
  std::uint32_t rac_threshold = access.violation_threshold;
  double rac_block_s = 0.0;
  std::uint32_t rac_quota = access.tenant_quota;
  if (!get_u32("rac_threshold", rac_threshold) ||
      !get_double("rac_block_s", rac_block_s) ||
      !get_u32("rac_quota", rac_quota)) {
    return fail(parse_error);
  }
  if (rac_threshold == 0) return fail("rac_threshold must be > 0");
  access.violation_threshold = rac_threshold;
  if (rac_block_s > 0) access.block_duration = sim::from_seconds(rac_block_s);
  access.tenant_quota = rac_quota;
  if (const std::string* v = get("rac")) {
    bool rac_on = true;
    if (!parse_on_off(*v, rac_on)) return fail("rac must be on|off");
    if (!rac_on) {
      // Teeth ablation: an unreachable threshold and no quota neutralize
      // the defense layer while the permission tables stay live — the
      // attack scenarios must demonstrably fail without it.
      access.violation_threshold = 0xFFFFFFFFu;
      access.tenant_quota = 0;
    }
  }

  // -- Elastic capacity --------------------------------------------------
  if (const std::string* v = get("elastic")) {
    if (*v == "off") {
      platform_config.elastic.mode = core::elastic::PoolMode::kDisabled;
    } else if (*v == "static") {
      platform_config.elastic.mode = core::elastic::PoolMode::kStatic;
    } else if (*v == "predictive") {
      platform_config.elastic.mode = core::elastic::PoolMode::kPredictive;
    } else {
      return fail("elastic must be off|static|predictive");
    }
  }
  if (!get_u32("elastic_target", platform_config.elastic.static_target) ||
      !get_u32("elastic_max", platform_config.elastic.max_warm)) {
    return fail(parse_error);
  }

  // -- Faults (plan + grouped crash storm) -------------------------------
  if (const std::string* v = get("faults")) {
    const auto plan = sim::FaultPlan::parse(*v);
    if (!plan) return fail("bad fault spec '" + *v + "'");
    platform_config.fault_plan = *plan;
  }
  if (const std::string* v = get("crash_recovery")) {
    if (!parse_on_off(*v, platform_config.crash_recovery)) {
      return fail("crash_recovery must be on|off");
    }
  }
  std::uint32_t storm_crashes = 0;
  double storm_at = 0.0;
  double storm_spacing = 0.05;
  if (!get_u32("storm_crashes", storm_crashes) ||
      !get_double("storm_at", storm_at) ||
      !get_double("storm_spacing", storm_spacing)) {
    return fail(parse_error);
  }
  for (std::uint32_t i = 0; i < storm_crashes; ++i) {
    sim::FaultRule rule;
    rule.kind = sim::FaultKind::kContainerCrash;
    rule.at = sim::from_seconds(storm_at + storm_spacing *
                                               static_cast<double>(i));
    platform_config.fault_plan.add(rule);
  }

  // -- Mobility ----------------------------------------------------------
  if (const std::string* v = get("handoff")) {
    if (!parse_handoffs(*v, platform_config.mobility)) {
      return fail("bad handoff spec '" + *v + "' (radio:at_s[:outage_s];...)");
    }
  }
  if (const std::string* v = get("adaptive")) {
    if (!parse_on_off(*v, platform_config.adaptive_offloading)) {
      return fail("adaptive must be on|off");
    }
  }

  // -- Invariants --------------------------------------------------------
  // auto (= on): the incremental oracle checks every event at any scale;
  // off disarms it, fault plans included.
  platform_config.force_invariants = true;
  if (const std::string* v = get("invariants")) {
    if (*v == "off") {
      platform_config.force_invariants = false;
      platform_config.check_invariants = false;
    } else if (*v != "auto" && *v != "on" && *v != "force") {
      return fail("invariants must be auto|on|off");
    }
  }

  platform_config.seed = loadgen.seed;

  // -- Execute -----------------------------------------------------------
  core::Platform platform(std::move(platform_config));
  const core::LoadSummary summary = core::run_load(platform, driver);

  // -- Reduce ------------------------------------------------------------
  const auto put = [&](const char* key, double value) {
    result.metrics.emplace_back(key, value);
  };
  const auto counter = [&](const char* name) -> double {
    const obs::Counter* c = platform.metrics().find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };

  bool accounting_ok =
      summary.offered == summary.completed + summary.rejected;
  std::size_t class_offered = 0;
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const core::ClassLoadStats& stats = summary.for_class(klass);
    class_offered += stats.offered;
    if (stats.offered != stats.completed + stats.rejected) {
      accounting_ok = false;
    }
  }
  if (class_offered != summary.offered) accounting_ok = false;
  // The identity must also hold per tenant — a swept attacker's requests
  // land in `rejected`, never in a silent gap (docs/RAC.md).
  std::size_t tenant_offered = 0;
  for (const auto& [name, stats] : summary.by_tenant) {
    (void)name;
    tenant_offered += stats.offered;
    if (stats.offered != stats.completed + stats.rejected) {
      accounting_ok = false;
    }
  }
  if (tenant_offered != summary.offered) accounting_ok = false;

  put("offered", static_cast<double>(summary.offered));
  put("completed", static_cast<double>(summary.completed));
  put("rejected", static_cast<double>(summary.rejected));
  put("stranded", static_cast<double>(summary.stranded));
  put("resumed", static_cast<double>(summary.resumed));
  put("completed_share",
      summary.offered == 0
          ? 0.0
          : static_cast<double>(summary.completed) /
                static_cast<double>(summary.offered));
  put("accounting_ok", accounting_ok ? 1.0 : 0.0);
  put("duration_s", summary.duration_s);
  put("offered_rate_per_s", summary.offered_rate_per_s);
  put("goodput_per_s", summary.goodput_per_s);
  put("mean_ms", summary.mean_ms);
  put("p50_ms", summary.p50_ms);
  put("p95_ms", summary.p95_ms);
  put("p99_ms", summary.p99_ms);
  put("mean_queue_wait_ms", summary.mean_queue_wait_ms);
  put("invariant_violations",
      static_cast<double>(platform.invariants().total_violations()));
  put("faults_fired",
      platform.fault_injector() == nullptr
          ? 0.0
          : static_cast<double>(platform.fault_injector()->total_fired()));
  put("handoffs", counter("mobility.handoffs"));
  put("outages", counter("mobility.outages"));
  put("sessions_resumed", counter("mobility.sessions_resumed"));
  put("rac.violations", counter("rac.violations"));
  put("rac.blocks", counter("rac.blocks"));
  put("rac.unblocks", counter("rac.unblocks"));
  put("rac.denied.blocked", counter("rac.denied.blocked"));
  put("rac.denied.violation", counter("rac.denied.violation"));
  put("rac.denied.quota", counter("rac.denied.quota"));
  put("admission.rejected.tenant_quota",
      counter("admission.rejected.tenant_quota"));

  std::size_t radio_slices = 0;
  double min_transfer = 0.0;
  double max_transfer = 0.0;
  for (const auto& [name, radio] : summary.by_radio) {
    (void)name;
    if (radio.completed == 0) continue;
    if (radio_slices == 0 || radio.mean_transfer_ms < min_transfer) {
      min_transfer = radio.mean_transfer_ms;
    }
    max_transfer = std::max(max_transfer, radio.mean_transfer_ms);
    ++radio_slices;
  }
  put("radio_slices", static_cast<double>(radio_slices));
  put("radio_transfer_ratio",
      radio_slices >= 2 && min_transfer > 0 ? max_transfer / min_transfer
                                            : 1.0);
  put("env_count", static_cast<double>(platform.env_count()));

  for (const auto& [reason, count] : summary.rejects_by_reason) {
    result.metrics.emplace_back(
        std::string("reject.") + core::to_string(reason),
        static_cast<double>(count));
  }
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const core::ClassLoadStats& stats = summary.for_class(klass);
    if (stats.offered == 0) continue;
    const std::string prefix =
        std::string("class.") + core::qos::to_string(klass) + ".";
    result.metrics.emplace_back(prefix + "offered",
                                static_cast<double>(stats.offered));
    result.metrics.emplace_back(prefix + "completed",
                                static_cast<double>(stats.completed));
    result.metrics.emplace_back(prefix + "rejected",
                                static_cast<double>(stats.rejected));
    result.metrics.emplace_back(prefix + "p99_ms", stats.p99_ms);
  }
  for (const auto& [name, stats] : summary.by_tenant) {
    if (name.empty()) continue;  // per-app tenancy has no stable label
    const std::string prefix = "tenant." + name + ".";
    result.metrics.emplace_back(prefix + "offered",
                                static_cast<double>(stats.offered));
    result.metrics.emplace_back(prefix + "completed",
                                static_cast<double>(stats.completed));
    result.metrics.emplace_back(prefix + "rejected",
                                static_cast<double>(stats.rejected));
    if (stats.completed > 0) {
      result.metrics.emplace_back(prefix + "p99_ms", stats.p99_ms);
    }
  }
  for (const auto& [name, radio] : summary.by_radio) {
    if (radio.completed == 0) continue;
    const std::string prefix = "radio." + name + ".";
    result.metrics.emplace_back(prefix + "completed",
                                static_cast<double>(radio.completed));
    result.metrics.emplace_back(prefix + "transfer_ms",
                                radio.mean_transfer_ms);
    result.metrics.emplace_back(prefix + "response_ms",
                                radio.mean_response_ms);
    result.metrics.emplace_back(prefix + "energy_mj", radio.mean_energy_mj);
  }

  result.info.emplace_back("arrival", to_string(loadgen.arrival));
  result.info.emplace_back("platform",
                           core::to_string(platform.config().kind));
  result.info.emplace_back("link", link.name);  // base radio (pre-handoff)
  result.info.emplace_back("profile", to_string(loadgen.profile));
  if (!platform.config().fault_plan.empty()) {
    result.info.emplace_back("faults", platform.config().fault_plan.spec());
  }
  // The diagnosis a failing gate needs: which invariant broke, and when.
  if (const core::InvariantViolation* first =
          platform.invariants().first_violation()) {
    result.info.emplace_back("first_violation",
                             first->name + " at " +
                                 std::to_string(first->when) + "us: " +
                                 first->detail);
  }
  result.info.emplace_back(
      "metrics_fingerprint",
      hex64(fingerprint64(platform.metrics().to_json())));

  result.ok = true;
  return result;
}

}  // namespace rattrap::experiments
