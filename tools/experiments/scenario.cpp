#include "scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "core/qos/qos.hpp"
#include "obs/json.hpp"

#include "../cli_util.hpp"
#include "../run_config.hpp"

namespace rattrap::experiments {

namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

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
  cli::RunKeys keys;
  for (const auto& [key, value] : spec.params) {
    if (!is_sweep_key(key)) keys.emplace(key, value);
  }
  core::LoadDriverConfig load;
  load.loadgen.devices = 100;
  load.loadgen.requests = 500;
  std::string error;
  auto run = cli::build_run_config(keys, cli::KeyStyle::kManifest,
                                   std::move(load), error);
  if (!run) {
    result.error = "[" + spec.experiment + "/" + spec.label + "] " + error;
    return result;
  }
  const sim::LoadGenConfig& loadgen = run->driver.loadgen;
  const std::string link = run->platform.link.name;  // pre-handoff radio

  // -- Execute -----------------------------------------------------------
  core::Platform platform(std::move(run->platform));
  const core::LoadSummary summary = core::run_load(platform, run->driver);

  // -- Reduce ------------------------------------------------------------
  const auto put = [&](const char* key, double value) {
    result.metrics.emplace_back(key, value);
  };
  const auto counter = [&](const char* name) -> double {
    const obs::Counter* c = platform.metrics().find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };

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
  put("accounting_ok", core::accounting_identity(summary) ? 1.0 : 0.0);
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
  result.info.emplace_back("link", link);
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
      hex64(cli::fingerprint64(platform.metrics().to_json())));

  result.ok = true;
  return result;
}

}  // namespace rattrap::experiments
