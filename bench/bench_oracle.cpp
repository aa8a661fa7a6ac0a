// Invariant-oracle overhead bench: what arming the oracle costs a
// fault-elastic-shaped drive in wall time.
//
// The shape is e2ebench's fault-elastic workload: 400 devices offering
// linpack at 12 requests/s on a diurnal profile (period 120 s, peak
// 2.5×), `net.drop:p=0.02;container.crash:p=0.01` with crash recovery,
// and a predictive elastic pool.  Each pair drives the same stream
// through two fresh platforms, one with the oracle armed (the default
// whenever a fault plan is set) and one with `check_invariants` off; the
// order inside a pair alternates, so drift in the host's speed falls on
// both sides alike.  A drive is submit + close through the public Session
// API; the real Linpack kernels behind the stream run once before the
// first pair (the process-wide memo then serves every session).
//
// Exit code: 1 when the median armed/disarmed wall ratio is above the
// bar (1.1 in full mode, 1.5 in quick mode, whose short drives on a
// shared runner are noisier); 2 when an armed run reports a violation,
// misses a check, or the two runs disagree on an outcome.  Quick mode
// (RATTRAP_BENCH_QUICK=1) runs 10 pairs of 3 000 sessions, full mode 30
// pairs.  Results go to BENCH_oracle.json under RATTRAP_BENCH_JSON_DIR;
// bench/BENCH_oracle.json is the committed quick-mode record
// (docs/PERF.md, "Invariant oracle").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "obs/json.hpp"

namespace {

using namespace rattrap;
using Clock = std::chrono::steady_clock;

/// One drive: its wall time and what the run reported.
struct Drive {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::size_t served = 0;
  std::size_t returned = 0;
};

core::PlatformConfig fault_elastic_config() {
  core::PlatformConfig config = core::make_config(core::PlatformKind::kRattrap);
  config.seed = 1;
  config.elastic.mode = core::elastic::PoolMode::kPredictive;
  config.fault_plan =
      *sim::FaultPlan::parse("net.drop:p=0.02;container.crash:p=0.01");
  config.crash_recovery = true;
  config.max_redispatch = 12;
  config.max_connect_attempts = 10;
  return config;
}

Drive drive(const core::PlatformConfig& config,
            const std::vector<workloads::OffloadRequest>& stream) {
  core::Platform platform(config);
  core::Result<core::Session> session = platform.open_session();
  if (!session.ok()) {
    std::fprintf(stderr, "bench_oracle: open_session failed\n");
    std::exit(2);
  }
  const Clock::time_point start = Clock::now();
  for (const workloads::OffloadRequest& request : stream) {
    session->submit(request);
  }
  const std::vector<core::RequestOutcome> outcomes = session->close();
  Drive d;
  d.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  d.events = platform.server().simulator().events_fired();
  d.checks = platform.invariants().checks_run();
  d.violations = platform.invariants().total_violations();
  d.returned = outcomes.size();
  for (const core::RequestOutcome& outcome : outcomes) {
    if (!outcome.rejected && !outcome.stranded) ++d.served;
  }
  return d;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const int pairs = quick ? 10 : 30;
  const double bar = quick ? 1.5 : 1.1;

  core::LoadDriverConfig load;
  load.kind = workloads::Kind::kLinpack;
  sim::LoadGenConfig& loadgen = load.loadgen;
  loadgen.arrival = sim::ArrivalProcess::kPoisson;
  loadgen.seed = 1;
  loadgen.devices = 400;
  loadgen.rate_per_s = 12;
  loadgen.requests = 3000;
  loadgen.profile = sim::RateProfile::kDiurnal;
  loadgen.profile_period_s = 120;
  loadgen.profile_peak_factor = 2.5;
  const std::vector<workloads::OffloadRequest> stream =
      core::make_load_stream(load);
  for (const workloads::OffloadRequest& request : stream) {
    (void)workloads::execute_task_cached(request.task);
  }

  core::PlatformConfig armed = fault_elastic_config();
  core::PlatformConfig disarmed = armed;
  disarmed.check_invariants = false;

  std::vector<double> ratios;
  std::vector<double> armed_s;
  std::vector<double> disarmed_s;
  bool sound = true;
  for (int pair = 0; pair < pairs; ++pair) {
    Drive on;
    Drive off;
    if (pair % 2 == 0) {
      on = drive(armed, stream);
      off = drive(disarmed, stream);
    } else {
      off = drive(disarmed, stream);
      on = drive(armed, stream);
    }
    armed_s.push_back(on.wall_s);
    disarmed_s.push_back(off.wall_s);
    ratios.push_back(on.wall_s / std::max(off.wall_s, 1e-9));
    // The oracle observes; it must not steer.  Every event is checked.
    const bool ok = on.violations == 0 && on.checks == on.events &&
                    off.checks == 0 && on.events == off.events &&
                    on.served == off.served &&
                    on.returned == stream.size() &&
                    off.returned == stream.size();
    if (!ok && sound) {
      std::fprintf(stderr,
                   "bench_oracle: pair %d: armed %llu violations, %llu "
                   "checks for %llu events; served %zu armed, %zu "
                   "disarmed of %zu\n",
                   pair, static_cast<unsigned long long>(on.violations),
                   static_cast<unsigned long long>(on.checks),
                   static_cast<unsigned long long>(on.events), on.served,
                   off.served, stream.size());
    }
    sound = sound && ok;
  }
  const double ratio = median(ratios);
  const double armed_median = median(armed_s);
  const double disarmed_median = median(disarmed_s);

  std::printf("bench_oracle (%s): %d pairs of %zu fault-elastic sessions\n",
              quick ? "quick" : "full", pairs, stream.size());
  std::printf("  armed    %.2f ms median drive (%.0f sessions/s)\n",
              armed_median * 1e3,
              static_cast<double>(stream.size()) / armed_median);
  std::printf("  disarmed %.2f ms median drive (%.0f sessions/s)\n",
              disarmed_median * 1e3,
              static_cast<double>(stream.size()) / disarmed_median);
  std::printf("  armed/disarmed median ratio %.3fx (bar: %.1fx)\n", ratio,
              bar);

  const char* dir = std::getenv("RATTRAP_BENCH_JSON_DIR");
  if (dir != nullptr && *dir != '\0') {
    std::string out = "{\"bench\":\"oracle\",\"quick\":";
    out += quick ? "true" : "false";
    out += ",\"pairs\":" + obs::json_number(static_cast<std::uint64_t>(pairs));
    out += ",\"sessions\":" +
           obs::json_number(static_cast<std::uint64_t>(stream.size()));
    out += ",\"armed_ms\":" + obs::json_number(armed_median * 1e3);
    out += ",\"disarmed_ms\":" + obs::json_number(disarmed_median * 1e3);
    out += ",\"ratio\":" + obs::json_number(ratio);
    out += ",\"ratio_bar\":" + obs::json_number(bar);
    out += ",\"ratios\":[";
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      if (i > 0) out += ',';
      out += obs::json_number(ratios[i]);
    }
    out += "]}\n";
    if (!obs::write_text_file(std::string(dir) + "/BENCH_oracle.json", out)) {
      std::fprintf(stderr, "warning: could not write bench JSON to %s\n",
                   dir);
    }
  }

  if (!sound) return 2;
  return ratio <= bar ? 0 : 1;
}
