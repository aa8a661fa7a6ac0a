// Extension bench: elastic capacity vs static warm pools on a bursty
// ramp (docs/ELASTIC.md).
//
// One Rattrap server is driven with the same MMPP arrival schedule shaped
// by the deterministic ramp profile (sim/loadgen.hpp): the offered rate
// staircases from 1x up to the peak factor and back each period, with
// flash-crowd bursts on top.  Four arms differ only in the elastic
// config — static pools of 0/4/16 (the PoolController with forecasting
// off) and the predictive pool (Holt forecaster + Little's-law target) —
// so every number comes from one code path.
//
// The frontier the table shows: a static pool must be provisioned for the
// peak to hide cold starts, and then pays that peak's idle memory-time
// all trough long; the predictive pool rides the ramp instead.  The
// acceptance bar (exit code): predictive holds cold-start p99 within
// 1.5x of static-16 while consuming at most 50% of its idle GB*s.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/load_driver.hpp"
#include "obs/json.hpp"

using namespace rattrap;

namespace {

struct ArmResult {
  std::size_t completed = 0;
  std::size_t rejected = 0;
  double cold_p99_ms = 0;      ///< runtime-preparation p99, accepted reqs
  double accepted_p99_ms = 0;  ///< response p99, accepted reqs
  std::uint64_t cold_boots = 0;
  std::uint64_t warm_hits = 0;
  double idle_gb_s = 0;  ///< warm-idle byte-seconds (the pool's cost)
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

std::uint64_t counter_value(const core::Platform& platform,
                            const char* name) {
  const obs::Counter* counter = platform.metrics().find_counter(name);
  return counter != nullptr ? counter->value() : 0;
}

core::LoadDriverConfig make_driver(std::size_t requests) {
  core::LoadDriverConfig driver;
  // Linpack at size 2 is the saturation bench's calibrated workload
  // (knee ~20 req/s); the ramp peaks just below it and the MMPP bursts
  // push past it briefly, so the admission controller stays honest.
  driver.kind = workloads::Kind::kLinpack;
  driver.size_class = 2;
  driver.loadgen.arrival = sim::ArrivalProcess::kMmpp;
  // A large fleet: almost every request is a device's first contact, so
  // warm starts must come from the pool rather than device affinity.
  driver.loadgen.devices = 2000;
  driver.loadgen.requests = requests;
  driver.loadgen.rate_per_s = 0.5;  // trough rate; ramp multiplies it
  // Flash crowds neither arm can forecast: a static pool must be sized
  // for them up front, the predictive pool only pays while they last.
  driver.loadgen.burst_factor = 8.0;
  driver.loadgen.mean_burst_s = 3.0;
  driver.loadgen.mean_calm_s = 30.0;
  driver.loadgen.profile = sim::RateProfile::kRamp;
  driver.loadgen.profile_period_s = 120.0;
  driver.loadgen.profile_peak_factor = 4.0;
  driver.loadgen.seed = 29;
  return driver;
}

ArmResult run_arm(const core::elastic::ElasticConfig& elastic,
                  std::size_t requests) {
  core::PlatformConfig config =
      core::make_config(core::PlatformKind::kRattrap);
  config.seed = 29;
  config.admission.enabled = true;  // "accepted" p99 means rejects exist
  // Reclaim one-shot device envs promptly; otherwise their 300 s idle
  // tail swamps the pool's idle-memory signal that the frontier charts.
  config.env_idle_timeout = sim::kSecond / 2;
  config.elastic = elastic;
  core::Platform platform(std::move(config));

  const auto stream = core::make_load_stream(make_driver(requests));
  const auto outcomes = platform.run(stream);

  ArmResult result;
  std::vector<double> prep_ms;
  std::vector<double> response_ms;
  prep_ms.reserve(outcomes.size());
  response_ms.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    if (o.rejected) {
      ++result.rejected;
      continue;
    }
    ++result.completed;
    prep_ms.push_back(sim::to_seconds(o.phases.runtime_preparation) * 1e3);
    response_ms.push_back(sim::to_seconds(o.response) * 1e3);
  }
  result.cold_p99_ms = percentile(std::move(prep_ms), 0.99);
  result.accepted_p99_ms = percentile(std::move(response_ms), 0.99);
  result.cold_boots = counter_value(platform, "elastic.cold_boots");
  result.warm_hits = counter_value(platform, "elastic.warm_hits");
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  result.idle_gb_s = platform.capacity().idle_byte_seconds() / kGiB;
  return result;
}

std::string arm_json(const ArmResult& r) {
  std::string body = "{";
  const auto field = [&body](const char* key, const std::string& value) {
    if (body.size() > 1) body += ',';
    body += '"';
    body += key;
    body += "\":";
    body += value;
  };
  field("completed",
        obs::json_number(static_cast<std::uint64_t>(r.completed)));
  field("rejected",
        obs::json_number(static_cast<std::uint64_t>(r.rejected)));
  field("cold_p99_ms", obs::json_number(r.cold_p99_ms));
  field("accepted_p99_ms", obs::json_number(r.accepted_p99_ms));
  field("cold_boots", obs::json_number(r.cold_boots));
  field("warm_hits", obs::json_number(r.warm_hits));
  field("idle_gb_s", obs::json_number(r.idle_gb_s));
  body += '}';
  return body;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const std::size_t requests = quick ? 600 : 2400;

  std::printf(
      "Elastic capacity — MMPP ramp vs static warm pools (Linpack, %zu "
      "requests)\n",
      requests);
  bench::print_rule('=');
  std::printf("%-18s %9s %12s %12s %7s %7s %10s\n", "arm", "done",
              "cold_p99[ms]", "resp_p99[ms]", "cold", "warm",
              "idle[GB*s]");
  bench::print_rule();

  bench::JsonEmitter json("bench_ext_elastic");

  struct Arm {
    std::string label;
    core::elastic::ElasticConfig elastic;
  };
  std::vector<Arm> arms;
  for (const std::uint32_t target : {0U, 4U, 16U}) {
    Arm arm;
    arm.label = "static-" + std::to_string(target);
    arm.elastic.mode = core::elastic::PoolMode::kStatic;
    arm.elastic.static_target = target;
    arm.elastic.max_warm = 24;
    arms.push_back(std::move(arm));
  }
  {
    Arm arm;
    arm.label = "predictive";
    arm.elastic.mode = core::elastic::PoolMode::kPredictive;
    arm.elastic.min_warm = 1;
    arm.elastic.max_warm = 8;
    // A damped forecaster: the MMPP bursts are unforecastable by
    // construction, so chasing them (high trend gain or a projection
    // horizon) only leaves an oversized pool behind each one.  Track
    // the ramp level, keep modest slack, release fast.
    arm.elastic.safety = 1.2;
    arm.elastic.prewarm_horizon_s = 0.0;
    arm.elastic.tick_s = 0.25;
    arm.elastic.beta = 0.05;
    arms.push_back(std::move(arm));
  }

  ArmResult static16;
  ArmResult predictive;
  for (const Arm& arm : arms) {
    const ArmResult result = run_arm(arm.elastic, requests);
    if (arm.elastic.mode == core::elastic::PoolMode::kStatic &&
        arm.elastic.static_target == 16) {
      static16 = result;
    }
    if (arm.elastic.mode == core::elastic::PoolMode::kPredictive) {
      predictive = result;
    }
    std::printf("%-18s %9zu %12.1f %12.1f %7llu %7llu %10.2f\n",
                arm.label.c_str(), result.completed, result.cold_p99_ms,
                result.accepted_p99_ms,
                static_cast<unsigned long long>(result.cold_boots),
                static_cast<unsigned long long>(result.warm_hits),
                result.idle_gb_s);
    json.add_raw(arm.label, arm_json(result));
  }
  bench::print_rule();

  // Acceptance frontier: the predictive pool must match static-16's
  // cold-start tail (within 1.5x, with a 100 ms floor so two all-warm
  // arms don't fail on sub-millisecond noise) at no more than half the
  // idle memory-time.
  const double p99_bound = std::max(1.5 * static16.cold_p99_ms, 100.0);
  const bool p99_ok = predictive.cold_p99_ms <= p99_bound;
  const double idle_bound = 0.5 * static16.idle_gb_s;
  const bool idle_ok = predictive.idle_gb_s <= idle_bound;
  std::printf(
      "cold-start p99: predictive %.1f ms vs static-16 %.1f ms "
      "(bound %.1f ms: %s)\n"
      "idle memory-time: predictive %.2f GB*s vs static-16 %.2f GB*s "
      "(bound %.2f: %s)\n",
      predictive.cold_p99_ms, static16.cold_p99_ms, p99_bound,
      p99_ok ? "OK" : "VIOLATED", predictive.idle_gb_s, static16.idle_gb_s,
      idle_bound, idle_ok ? "OK" : "VIOLATED");

  json.add_raw(
      "summary",
      "{\"p99_ratio\":" +
          obs::json_number(static16.cold_p99_ms > 0
                               ? predictive.cold_p99_ms /
                                     static16.cold_p99_ms
                               : 0) +
          ",\"idle_ratio\":" +
          obs::json_number(static16.idle_gb_s > 0
                               ? predictive.idle_gb_s / static16.idle_gb_s
                               : 0) +
          ",\"bounded\":" +
          ((p99_ok && idle_ok) ? "true" : "false") + "}");

  // The 1.5x / 50% frontier is the acceptance bar for the elastic
  // subsystem; a violation should fail the CI smoke run loudly.
  return (p99_ok && idle_ok) ? 0 : 1;
}
