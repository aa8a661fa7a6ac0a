// Provisioning bench: the host cost of cold CAC provisions, and whether
// it stays flat as the environment table grows.
//
// The stream is cold-fleet shaped — linpack offloads, Poisson arrivals at
// 20 requests/s — but every request comes from a device the platform has
// never seen, so every session provisions and boots a fresh CAC.  The
// idle timeout is 10 s instead of 300 s, so reclaim runs from the first
// seconds on and every decile does the same work: a session is one
// provision, the offload it was booted for and the reclaim after it.
// Only the environment table grows.  The stream is driven through the
// public Session API; the run happens in the close() drain.  One clock
// read per completion splits the drain into deciles of sessions, and each
// decile's wall time over its session count is the host cost per
// provision.
//
// Exit code is the linearity gate: 1 when the last decile costs more
// than kGrowthBar times the first, i.e. when a provision gets dearer as
// more environments exist; 2 when a session is lost or not served by a
// fresh CAC.  Quick mode (RATTRAP_BENCH_QUICK=1) drives 10^4 provisions,
// full mode 5·10^4.  Results go to BENCH_provision.json under
// RATTRAP_BENCH_JSON_DIR; bench/BENCH_provision.json is the committed
// quick-mode baseline (docs/PERF.md).
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

constexpr double kGrowthBar = 2.0;
constexpr int kDeciles = 10;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const std::size_t sessions = quick ? 10'000 : 50'000;

  core::LoadDriverConfig load;
  load.kind = workloads::Kind::kLinpack;
  load.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  load.loadgen.rate_per_s = 20;
  load.loadgen.devices = static_cast<std::uint32_t>(sessions);
  load.loadgen.requests = sessions;
  load.loadgen.seed = 1;
  std::vector<workloads::OffloadRequest> stream =
      core::make_load_stream(load);
  // One device per request: every session binds a new environment.
  for (workloads::OffloadRequest& request : stream) {
    request.device_id = static_cast<std::uint32_t>(request.sequence);
  }

  core::PlatformConfig config = core::make_config(core::PlatformKind::kRattrap);
  config.seed = 1;
  config.env_idle_timeout = 10 * sim::kSecond;
  core::Platform platform(config);
  std::vector<Clock::time_point> stamps;
  stamps.reserve(sessions);
  platform.set_completion_observer(
      [&stamps](const core::RequestOutcome&) {
        stamps.push_back(Clock::now());
      });

  core::Result<core::Session> session = platform.open_session();
  if (!session.ok()) {
    std::fprintf(stderr, "bench_provision: open_session failed\n");
    return 2;
  }
  for (const workloads::OffloadRequest& request : stream) {
    session->submit(request);
  }
  const Clock::time_point start = Clock::now();
  const std::vector<core::RequestOutcome> outcomes = session->close();
  const double wall_s = seconds_between(start, Clock::now());

  std::size_t served = 0;
  for (const core::RequestOutcome& outcome : outcomes) {
    if (!outcome.rejected && !outcome.stranded) ++served;
  }
  const obs::Counter* provisioned =
      platform.metrics().find_counter("env.provisioned");
  const std::uint64_t provisions =
      provisioned != nullptr ? provisioned->value() : 0;

  std::vector<double> decile_us;
  for (int d = 0; d < kDeciles && stamps.size() >= kDeciles; ++d) {
    const std::size_t first = stamps.size() * d / kDeciles;
    const std::size_t last = stamps.size() * (d + 1) / kDeciles;
    const Clock::time_point from = first == 0 ? start : stamps[first - 1];
    decile_us.push_back(seconds_between(from, stamps[last - 1]) * 1e6 /
                        static_cast<double>(last - first));
  }
  const bool complete = outcomes.size() == sessions &&
                        stamps.size() == sessions && served == sessions &&
                        provisions == sessions;
  const double first_us = decile_us.empty() ? 0 : decile_us.front();
  const double last_us = decile_us.empty() ? 0 : decile_us.back();
  const double growth = first_us > 0 ? last_us / first_us : 0;

  std::printf("bench_provision (%s): %zu sessions, %llu provisions, "
              "%zu served, %.3f s wall (%.0f provisions/s)\n",
              quick ? "quick" : "full", sessions,
              static_cast<unsigned long long>(provisions), served, wall_s,
              static_cast<double>(provisions) / std::max(wall_s, 1e-9));
  std::printf("  host us/provision by decile:");
  for (const double us : decile_us) std::printf(" %.1f", us);
  std::printf("\n  last/first decile %.2fx (bar: %.1fx)\n", growth,
              kGrowthBar);

  const char* dir = std::getenv("RATTRAP_BENCH_JSON_DIR");
  if (dir != nullptr && *dir != '\0') {
    std::string out = "{\"bench\":\"provision\",\"quick\":";
    out += quick ? "true" : "false";
    out += ",\"sessions\":" +
           obs::json_number(static_cast<std::uint64_t>(sessions));
    out += ",\"provisions\":" + obs::json_number(provisions);
    out += ",\"wall_s\":" + obs::json_number(wall_s);
    out += ",\"first_decile_us\":" + obs::json_number(first_us);
    out += ",\"last_decile_us\":" + obs::json_number(last_us);
    out += ",\"growth\":" + obs::json_number(growth);
    out += ",\"growth_bar\":" + obs::json_number(kGrowthBar);
    out += ",\"decile_us\":[";
    for (std::size_t i = 0; i < decile_us.size(); ++i) {
      if (i > 0) out += ',';
      out += obs::json_number(decile_us[i]);
    }
    out += "]}\n";
    if (!obs::write_text_file(std::string(dir) + "/BENCH_provision.json",
                              out)) {
      std::fprintf(stderr, "warning: could not write bench JSON to %s\n",
                   dir);
    }
  }

  if (!complete) {
    std::fprintf(stderr, "bench_provision: %zu outcomes, %zu served, "
                 "%llu provisions for %zu sessions\n",
                 outcomes.size(), served,
                 static_cast<unsigned long long>(provisions), sessions);
    return 2;
  }
  return growth <= kGrowthBar ? 0 : 1;
}
