// loadgen — cluster-scale load generation against one Rattrap platform.
//
// Synthesizes the traffic of very large device fleets (Poisson, bursty
// MMPP, closed-loop think time, or trace replay) and drives one platform
// through it, reporting the goodput/latency summary, the invariant
// oracle's verdict and a determinism fingerprint over the metrics
// registry.  Every flag but --transport, --json and --help is a key of
// the run-config table experiments manifests use (run_config.hpp):
//
//   loadgen --devices 50000 --arrival poisson --seed 1
//   loadgen --arrival mmpp --rate 200 --burst-factor 10 --requests 20000
//   loadgen --arrival closed --devices 2000 --think 0.5 --admission
//   loadgen --faults net.drop:p=0.02 --elastic predictive --json
//   loadgen --transport rpc --requests 10000   # same run over sockets
//
// Same flags + same seed ⇒ byte-identical metrics JSON (the fingerprint
// printed at the end makes that checkable from a shell).  --transport
// rpc drives the identical workload through an in-process rpc::Server
// over a real loopback socket; the printed fingerprint then hashes the
// server platform's registry fetched over the wire, and matches the sim
// transport's fingerprint exactly (docs/RPC.md).  Exit 0 on a clean
// run, 1 when the oracle recorded a violation or the transport failed,
// 2 on a usage or config error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "core/qos/qos.hpp"
#include "obs/metrics.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"

#include "cli_util.hpp"
#include "run_config.hpp"

using namespace rattrap;

namespace {

void usage() {
  std::puts(
      "usage: loadgen [options]\n"
      "Run-config keys (EXPERIMENTS.md), --key-name value; an on|off key\n"
      "given bare means on:");
  cli::print_flag_help(stdout);
  std::puts(
      "Loadgen only:\n"
      "  --transport T               sim | rpc: in-process sim clock, or the\n"
      "                              same workload over a loopback rpc::Server\n"
      "                              (open-loop arrivals only)\n"
      "  --json                      print the full metrics JSON\n"
      "  --help");
}

struct Options {
  cli::RunKeys keys;
  bool json = false;
  bool rpc = false;  ///< --transport rpc: loopback sockets, same workload
};

bool parse(int argc, char** argv, Options& options) {
  std::string error;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      usage();
      std::exit(0);
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--transport") {
      const char* v = i + 1 < argc ? argv[++i] : "(missing)";
      if (std::strcmp(v, "sim") != 0 && std::strcmp(v, "rpc") != 0) {
        std::fprintf(stderr, "bad value for --transport: %s\n", v);
        return false;
      }
      options.rpc = std::strcmp(v, "rpc") == 0;
    } else if (!cli::read_flag(argc, argv, i, options.keys, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  std::string error;
  auto run = cli::build_run_config(options.keys, cli::KeyStyle::kFlag,
                                   core::LoadDriverConfig{}, error);
  if (!run) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const core::LoadDriverConfig& driver = run->driver;
  if (options.rpc &&
      driver.loadgen.arrival == sim::ArrivalProcess::kClosedLoop) {
    // The closed loop feeds submissions from the platform's completion
    // observer — an in-process callback that cannot cross the wire.
    std::fprintf(stderr, "--transport rpc requires an open-loop arrival\n");
    return 2;
  }
  core::Platform platform(std::move(run->platform));

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
    summary = core::run_load_transport(*client, driver);
    metrics_json = client->fetch_metrics();
    if (!client->ok() || metrics_json.empty()) {
      std::fprintf(stderr, "rpc: transport failed (%s)\n",
                   rpc::to_string(client->last_error()));
      return 1;
    }
    client.reset();
    server.stop();
  } else {
    summary = core::run_load(platform, driver);
    metrics_json = platform.metrics().to_json();
  }

  std::printf("arrival=%s profile=%s devices=%u requests=%zu seed=%llu\n",
              to_string(driver.loadgen.arrival),
              to_string(driver.loadgen.profile),
              driver.loadgen.devices, summary.offered,
              static_cast<unsigned long long>(driver.loadgen.seed));
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
  if (!driver.loadgen.mix.empty()) {
    for (const auto& [tenant, completed] : summary.completed_by_tenant) {
      std::printf("tenant.%s completed=%zu\n", tenant.c_str(), completed);
    }
  }
  std::printf("virtual_duration=%.1fs envs=%zu\n", summary.duration_s,
              platform.env_count());

  // Request accounting must balance on every transport: what was offered
  // either completed or was rejected, in total, per class and per tenant
  // (the CI rpc-loopback smoke greps for this line).
  std::printf("accounting_identity=%s\n",
              core::accounting_identity(summary) ? "ok" : "violated");
  const core::InvariantChecker& invariants = platform.invariants();
  std::printf("invariant_violations=%llu\n",
              static_cast<unsigned long long>(invariants.total_violations()));
  if (const core::InvariantViolation* first = invariants.first_violation()) {
    std::printf("first_violation=%s at %lldus: %s\n", first->name.c_str(),
                static_cast<long long>(first->when), first->detail.c_str());
  }

  // The fingerprint hashes the full registry export — qos.* series,
  // admission gauges, the lot — and the export leads with its schema
  // version, so metric renames change both the printed schema and the
  // fingerprint instead of silently matching a stale golden value.
  if (options.json) std::printf("%s\n", metrics_json.c_str());
  std::printf("metrics_schema=%d\n", obs::kMetricsSchemaVersion);
  std::printf("metrics_fingerprint=%016llx\n",
              static_cast<unsigned long long>(cli::fingerprint64(metrics_json)));
  return invariants.ok() ? 0 : 1;
}
