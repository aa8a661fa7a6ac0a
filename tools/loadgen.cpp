// loadgen — cluster-scale load generation against one Rattrap platform.
//
// Synthesizes the traffic of very large device fleets (Poisson, bursty
// MMPP, or closed-loop think-time arrivals) and drives a platform with
// admission control through it, reporting the goodput/latency summary
// and a determinism fingerprint over the metrics registry:
//
//   loadgen --devices 50000 --arrival poisson --seed 1
//   loadgen --arrival mmpp --rate 200 --burst-factor 10 --requests 20000
//   loadgen --arrival closed --devices 2000 --think 0.5 --admission
//   loadgen --admission --rate 400 --shed 8 --json
//   loadgen --transport rpc --requests 10000   # same run over sockets
//
// Same flags + same seed ⇒ byte-identical metrics JSON (the fingerprint
// printed at the end makes that checkable from a shell).  --transport
// rpc drives the identical workload through an in-process rpc::Server
// over a real loopback socket; the printed fingerprint then hashes the
// server platform's registry fetched over the wire, and matches the sim
// transport's fingerprint exactly (docs/RPC.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "core/qos/qos.hpp"
#include "obs/metrics.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "trace/livelab.hpp"

#include "cli_util.hpp"

using namespace rattrap;

namespace {

void usage() {
  std::puts(
      "usage: loadgen [options]\n"
      "  --arrival P      poisson | mmpp | closed | trace (default poisson)\n"
      "  --devices N      fleet size (default 1000)\n"
      "  --requests N     total offered requests (default 1000)\n"
      "  --rate R         offered req/s, open loop (default 100)\n"
      "  --burst-factor F mmpp burst-state rate multiplier (default 8)\n"
      "  --profile P      flat | ramp | diurnal rate profile (default flat)\n"
      "  --profile-period S  profile cycle length, seconds (default 60)\n"
      "  --profile-peak F    profile peak rate multiplier (default 8)\n"
      "  --flash-at S     flash-crowd surge onset, seconds (default off)\n"
      "  --flash-duration S  flash-crowd surge length, seconds\n"
      "  --flash-factor F    flash-crowd rate multiplier (default 1)\n"
      "  --trace-file P   CSV trace to replay (--arrival trace)\n"
      "  --trace-scale F  trace time multiplier, >0 (default 1)\n"
      "  --trace-repeat N trace playback loops (default 1)\n"
      "  --think S        closed-loop mean think time, seconds (default 1)\n"
      "  --kind K         linpack | ocr | chess | virusscan (default linpack)\n"
      "  --seed S         master seed (default 1)\n"
      "  --admission      enable the admission front door\n"
      "  --queue N        accept-queue capacity (default 64)\n"
      "  --max-in-service N  concurrent dispatch bound (0 = 4x cores)\n"
      "  --tenant-rate R  per-app token-bucket rate, req/s (0 = off)\n"
      "  --shed U         utilization shed threshold (0 = off)\n"
      "  --qos            enable class/tenant QoS scheduling (implies\n"
      "                   --admission)\n"
      "  --mix T:C[:W[:S]]  add a traffic-mix slice: tenant T, class C\n"
      "                   (interactive|standard|batch), DRR weight W\n"
      "                   (default 1), share S (default 1). Repeatable.\n"
      "  --transport T    sim | rpc: in-process sim clock, or the same\n"
      "                   workload over a loopback rpc::Server (open-loop\n"
      "                   arrivals only)\n"
      "  --quantum N      DRR quantum (default 1)\n"
      "  --starvation-burst N  anti-starvation burst size (default 1)\n"
      "  --promote-every N     pops between promotions (default 8)\n"
      "  --json           print the full metrics JSON\n"
      "  --help");
}

struct Options {
  core::LoadDriverConfig driver;
  core::AdmissionConfig admission;
  std::string trace_file;  ///< CSV trace for --arrival trace
  bool json = false;
  bool rpc = false;  ///< --transport rpc: loopback sockets, same workload
};

/// "tenant:class[:weight[:share]]", e.g. "gold:interactive:3:0.25".
bool parse_mix(const char* v, sim::TrafficClassMix& mix) {
  std::vector<std::string> parts;
  std::string current;
  for (const char* p = v;; ++p) {
    if (*p == ':' || *p == '\0') {
      parts.push_back(current);
      current.clear();
      if (*p == '\0') break;
    } else {
      current.push_back(*p);
    }
  }
  if (parts.size() < 2 || parts.size() > 4) return false;
  mix.tenant = parts[0];
  const auto klass = core::qos::parse_class(parts[1]);
  if (!klass) return false;
  mix.priority = static_cast<std::uint8_t>(core::qos::class_index(*klass));
  if (parts.size() > 2 &&
      (!cli::parse_u32(parts[2], mix.weight) || mix.weight == 0)) {
    return false;
  }
  if (parts.size() > 3 &&
      (!cli::parse_double(parts[3], mix.share) || mix.share <= 0)) {
    return false;
  }
  return true;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Strict flag values: a malformed value is a usage error, not a
    // silent 0/default (cli_util.hpp).
    const auto value = [&](auto& out) {
      return cli::flag_value(arg.c_str(), next(), out);
    };
    if (arg == "--help") {
      usage();
      std::exit(0);
    } else if (arg == "--admission") {
      options.admission.enabled = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--arrival") {
      if (!value(options.driver.loadgen.arrival)) return false;
    } else if (arg == "--devices") {
      if (!value(options.driver.loadgen.devices)) return false;
    } else if (arg == "--requests") {
      std::uint64_t requests = 0;
      if (!value(requests)) return false;
      options.driver.loadgen.requests = requests;
    } else if (arg == "--rate") {
      if (!value(options.driver.loadgen.rate_per_s)) return false;
    } else if (arg == "--burst-factor") {
      if (!value(options.driver.loadgen.burst_factor)) return false;
    } else if (arg == "--profile") {
      if (!value(options.driver.loadgen.profile)) return false;
    } else if (arg == "--profile-period") {
      if (!value(options.driver.loadgen.profile_period_s)) return false;
    } else if (arg == "--profile-peak") {
      if (!value(options.driver.loadgen.profile_peak_factor)) return false;
    } else if (arg == "--flash-at") {
      if (!value(options.driver.loadgen.flash_at_s)) return false;
    } else if (arg == "--flash-duration") {
      if (!value(options.driver.loadgen.flash_duration_s)) return false;
    } else if (arg == "--flash-factor") {
      if (!value(options.driver.loadgen.flash_factor)) return false;
    } else if (arg == "--trace-file") {
      const char* v = next();
      if (v == nullptr) return false;
      options.trace_file = v;
    } else if (arg == "--trace-scale") {
      if (!value(options.driver.loadgen.trace_time_scale) ||
          options.driver.loadgen.trace_time_scale <= 0) {
        std::fprintf(stderr, "--trace-scale must be > 0\n");
        return false;
      }
    } else if (arg == "--trace-repeat") {
      if (!value(options.driver.loadgen.trace_repeat)) return false;
    } else if (arg == "--think") {
      if (!value(options.driver.loadgen.think_time_s)) return false;
    } else if (arg == "--kind") {
      if (!value(options.driver.kind)) return false;
    } else if (arg == "--seed") {
      if (!value(options.driver.loadgen.seed)) return false;
    } else if (arg == "--queue") {
      if (!value(options.admission.queue_capacity)) return false;
    } else if (arg == "--max-in-service") {
      if (!value(options.admission.max_in_service)) return false;
    } else if (arg == "--tenant-rate") {
      if (!value(options.admission.tenant_rate_per_s)) return false;
    } else if (arg == "--shed") {
      if (!value(options.admission.shed_utilization)) return false;
    } else if (arg == "--qos") {
      options.admission.enabled = true;
      options.admission.qos.enabled = true;
    } else if (arg == "--mix") {
      const char* v = next();
      sim::TrafficClassMix mix;
      if (v == nullptr || !parse_mix(v, mix)) {
        std::fprintf(stderr, "bad --mix spec (tenant:class[:weight[:share]])\n");
        return false;
      }
      options.driver.loadgen.mix.push_back(std::move(mix));
    } else if (arg == "--transport") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string s = v;
      if (s == "sim") {
        options.rpc = false;
      } else if (s == "rpc") {
        options.rpc = true;
      } else {
        std::fprintf(stderr, "unknown transport: %s\n", v);
        return false;
      }
    } else if (arg == "--quantum") {
      if (!value(options.admission.qos.quantum)) return false;
    } else if (arg == "--starvation-burst") {
      if (!value(options.admission.qos.starvation_burst)) return false;
    } else if (arg == "--promote-every") {
      if (!value(options.admission.qos.promote_every)) return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (options.driver.loadgen.devices == 0 ||
      options.driver.loadgen.requests == 0) {
    std::fprintf(stderr, "--devices and --requests must be > 0\n");
    return false;
  }
  const bool trace_replay =
      options.driver.loadgen.arrival == sim::ArrivalProcess::kTraceReplay;
  if (trace_replay != !options.trace_file.empty()) {
    std::fprintf(stderr, trace_replay
                             ? "--arrival trace requires --trace-file\n"
                             : "--trace-file requires --arrival trace\n");
    return false;
  }
  if (options.rpc &&
      options.driver.loadgen.arrival == sim::ArrivalProcess::kClosedLoop) {
    // The closed loop feeds submissions from the platform's completion
    // observer — an in-process callback that cannot cross the wire.
    std::fprintf(stderr, "--transport rpc requires an open-loop arrival\n");
    return false;
  }
  return true;
}

/// FNV-1a over the deterministic metrics JSON: two runs printing the same
/// fingerprint produced byte-identical registries.
std::uint64_t fingerprint(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  if (!options.trace_file.empty()) {
    const auto loaded = trace::load_csv(options.trace_file);
    if (!loaded) {
      std::fprintf(stderr, "cannot load trace: %s\n",
                   options.trace_file.c_str());
      return 2;
    }
    options.driver.loadgen.trace.reserve(loaded->size());
    for (const trace::TraceEvent& event : *loaded) {
      options.driver.loadgen.trace.push_back(
          sim::TraceArrival{event.time, event.user});
    }
    if (options.driver.loadgen.trace.empty()) {
      std::fprintf(stderr, "trace has no events: %s\n",
                   options.trace_file.c_str());
      return 2;
    }
  }

  core::PlatformConfig config =
      core::make_config(core::PlatformKind::kRattrap);
  config.seed = options.driver.loadgen.seed;
  config.admission = options.admission;
  core::Platform platform(std::move(config));

  core::LoadSummary summary;
  std::string metrics_json;
  if (options.rpc) {
    // Same platform, same workload — but the Session API crosses a real
    // loopback socket through the async front door.  The metrics JSON is
    // fetched over the wire, so the fingerprint covers the server-side
    // registry (which the sim transport fingerprints directly).
    rpc::Server server(platform, rpc::ServerConfig{});
    if (!server.start()) {
      std::fprintf(stderr, "rpc: cannot start loopback server\n");
      return 1;
    }
    auto client = rpc::ClientTransport::connect("127.0.0.1", server.port());
    if (client == nullptr) {
      std::fprintf(stderr, "rpc: cannot connect to 127.0.0.1:%u\n",
                   server.port());
      return 1;
    }
    summary = core::run_load_transport(*client, options.driver);
    metrics_json = client->fetch_metrics();
    if (!client->ok() || metrics_json.empty()) {
      std::fprintf(stderr, "rpc: transport failed (%s)\n",
                   rpc::to_string(client->last_error()));
      return 1;
    }
    client.reset();
    server.stop();
  } else {
    summary = core::run_load(platform, options.driver);
    metrics_json = platform.metrics().to_json();
  }

  std::printf("arrival=%s profile=%s devices=%u requests=%zu seed=%llu\n",
              to_string(options.driver.loadgen.arrival),
              to_string(options.driver.loadgen.profile),
              options.driver.loadgen.devices, summary.offered,
              static_cast<unsigned long long>(options.driver.loadgen.seed));
  std::printf(
      "offered_rate=%.1f/s goodput=%.1f/s completed=%zu rejected=%zu "
      "stranded=%zu\n",
      summary.offered_rate_per_s, summary.goodput_per_s, summary.completed,
      summary.rejected, summary.stranded);
  for (const auto& [reason, count] : summary.rejects_by_reason) {
    std::printf("  rejected.%s=%zu\n", core::to_string(reason), count);
  }
  std::printf("latency_ms mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
              "queue_wait_mean=%.2f\n",
              summary.mean_ms, summary.p50_ms, summary.p95_ms,
              summary.p99_ms, summary.mean_queue_wait_ms);
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const core::ClassLoadStats& stats = summary.for_class(klass);
    if (stats.offered == 0) continue;
    std::printf(
        "class.%s offered=%zu completed=%zu rejected=%zu "
        "deadline_missed=%zu p50=%.1f p99=%.1f\n",
        core::qos::to_string(klass), stats.offered, stats.completed,
        stats.rejected, stats.deadline_missed, stats.p50_ms, stats.p99_ms);
  }
  if (!options.driver.loadgen.mix.empty()) {
    for (const auto& [tenant, completed] : summary.completed_by_tenant) {
      std::printf("tenant.%s completed=%zu\n", tenant.c_str(), completed);
    }
  }
  std::printf("virtual_duration=%.1fs envs=%zu\n", summary.duration_s,
              platform.env_count());

  // Request accounting must balance on every transport: what was offered
  // either completed or was rejected, per class and in total (the CI
  // rpc-loopback smoke greps for this line).
  bool identity = summary.offered == summary.completed + summary.rejected;
  std::size_t class_offered = 0;
  for (const core::qos::PriorityClass klass : core::qos::kAllClasses) {
    const core::ClassLoadStats& stats = summary.for_class(klass);
    identity = identity && stats.offered == stats.completed + stats.rejected;
    class_offered += stats.offered;
  }
  identity = identity && class_offered == summary.offered;
  std::printf("accounting_identity=%s\n", identity ? "ok" : "violated");

  // The fingerprint hashes the full registry export — qos.* series,
  // admission gauges, the lot — and the export leads with its schema
  // version, so metric renames change both the printed schema and the
  // fingerprint instead of silently matching a stale golden value.
  if (options.json) std::printf("%s\n", metrics_json.c_str());
  std::printf("metrics_schema=%d\n", obs::kMetricsSchemaVersion);
  std::printf("metrics_fingerprint=%016llx\n",
              static_cast<unsigned long long>(fingerprint(metrics_json)));
  return 0;
}
