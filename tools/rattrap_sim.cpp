// rattrap_sim — one platform × workload × network run, printed request
// by request.
//
// Every flag but --csv, --metrics-out, --trace-out and --help is a key of
// the run-config table loadgen and experiments manifests read
// (run_config.hpp), so one key set describes one run in every front end:
//
//   rattrap --platform rattrap --kind ocr --requests 20 --link lan
//   rattrap --platform vmcloud --kind chess --csv > chess_vm.csv
//   rattrap --kind virusscan --link 3g --adaptive
//   rattrap --kind chess --arrival trace --trace-file accesses.csv
//
// Its load defaults are the paper's scale (5 devices, 20 requests at
// 0.125 req/s, seed 42); every other default is the table's.  It prints
// the per-request phase table (or CSV rows), the platform snapshot and
// the invariant oracle's verdict.  Exit 0 after a run, 1 when an output
// file cannot be written or the oracle recorded a violation, 2 on a
// usage or config error.
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "core/report.hpp"
#include "obs/json.hpp"

#include "run_config.hpp"

using namespace rattrap;

namespace {

/// The paper's evaluation scale: a handful of devices, one request every
/// 8 s on average.
core::LoadDriverConfig paper_scale() {
  core::LoadDriverConfig load;
  load.loadgen.devices = 5;
  load.loadgen.requests = 20;
  load.loadgen.rate_per_s = 0.125;
  load.loadgen.seed = 42;
  return load;
}

void usage() {
  std::puts(
      "usage: rattrap [options]\n"
      "Run-config keys (EXPERIMENTS.md), --key-name value; an on|off key\n"
      "given bare means on:");
  cli::print_flag_help(stdout, paper_scale());
  std::puts(
      "Rattrap only:\n"
      "  --csv                       machine-readable per-request output\n"
      "  --metrics-out FILE          write platform metrics as JSON\n"
      "  --trace-out FILE            write spans as Chrome trace JSON\n"
      "  --help");
}

int usage_error(const std::string& what) {
  std::fprintf(stderr, "%s\n", what.c_str());
  usage();
  return 2;
}

bool write_file(const std::string& path, const std::string& text,
                const char* what) {
  if (path.empty() || obs::write_text_file(path, text)) return true;
  std::fprintf(stderr, "cannot write %s to '%s'\n", what, path.c_str());
  return false;
}

void print_csv(const core::RequestOutcome& o) {
  std::printf(
      "%llu,%u,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%llu,%llu,%d,%d\n",
      static_cast<unsigned long long>(o.request.sequence),
      o.request.device_id, sim::to_millis(o.request.arrival),
      sim::to_millis(o.phases.network_connection),
      sim::to_millis(o.phases.runtime_preparation),
      sim::to_millis(o.phases.data_transfer),
      sim::to_millis(o.phases.computation), sim::to_millis(o.response),
      sim::to_millis(o.local_time), o.speedup,
      static_cast<unsigned long long>(o.traffic.total_up()),
      static_cast<unsigned long long>(o.traffic.total_down()),
      o.code_cache_hit ? 1 : 0, o.rejected ? 1 : 0);
}

/// The oracle's verdict the way loadgen prints it: the violation count
/// and the first violation, if any.
void print_invariants(std::FILE* out, const core::InvariantChecker& checker) {
  std::fprintf(out, "invariant_violations=%llu\n",
               static_cast<unsigned long long>(checker.total_violations()));
  if (const core::InvariantViolation* first = checker.first_violation()) {
    std::fprintf(out, "first_violation=%s at %lldus: %s\n",
                 first->name.c_str(), static_cast<long long>(first->when),
                 first->detail.c_str());
  }
}

void print_row(const core::RequestOutcome& o) {
  std::printf("%4llu %8.1fms %8.1fms %8.1fms %8.1fms %9.1fms %7.2fx%s\n",
              static_cast<unsigned long long>(o.request.sequence + 1),
              sim::to_millis(o.phases.network_connection),
              sim::to_millis(o.phases.runtime_preparation),
              sim::to_millis(o.phases.data_transfer),
              sim::to_millis(o.phases.computation),
              sim::to_millis(o.response), o.speedup,
              o.rejected ? " REJECTED"
                         : (o.offloading_failure() ? " FAIL" : ""));
}

}  // namespace

int main(int argc, char** argv) {
  cli::RunKeys keys;
  bool csv = false;
  std::string metrics_out;
  std::string trace_out;
  std::string error;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string* out = arg == "--metrics-out" ? &metrics_out
                       : arg == "--trace-out" ? &trace_out
                                              : nullptr;
    if (arg == "--help") {
      usage();
      return 0;
    } else if (arg == "--csv") {
      csv = true;
    } else if (out != nullptr) {
      if (i + 1 == argc) return usage_error("missing value for " +
                                            std::string(arg));
      *out = argv[++i];
    } else if (!cli::read_flag(argc, argv, i, keys, error)) {
      return usage_error(error);
    }
  }
  auto run = cli::build_run_config(keys, cli::KeyStyle::kFlag, paper_scale(),
                                   error);
  if (!run) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  const core::LoadDriverConfig& driver = run->driver;
  core::Platform platform(std::move(run->platform));
  if (!trace_out.empty()) platform.trace().enable();
  std::vector<core::RequestOutcome> outcomes;
  const core::LoadSummary summary =
      core::run_load(platform, driver, outcomes);
  if (!write_file(metrics_out, platform.metrics().to_json(), "metrics") ||
      !write_file(trace_out, platform.trace().to_chrome_json(), "trace")) {
    return 1;
  }

  // The load driver numbers its requests 0..offered-1 and hands their
  // outcomes back in that order.
  if (csv) {
    std::puts(
        "seq,device,arrival_ms,conn_ms,prep_ms,xfer_ms,comp_ms,"
        "response_ms,local_ms,speedup,up_bytes,down_bytes,cache_hit,"
        "rejected");
    for (const core::RequestOutcome& o : outcomes) print_csv(o);
    // The CSV stays machine-readable: a violation is reported on stderr.
    if (!platform.invariants().ok()) {
      print_invariants(stderr, platform.invariants());
    }
    return platform.invariants().ok() ? 0 : 1;
  }

  const core::PlatformConfig& config = platform.config();
  std::printf("%s | %s | %s | %zu requests from %u devices\n",
              core::to_string(config.kind), workloads::to_string(driver.kind),
              config.link.name.c_str(), summary.offered,
              driver.loadgen.devices);
  std::printf("%4s %9s %9s %9s %9s %10s %8s\n", "req", "conn", "prep",
              "xfer", "comp", "response", "speedup");
  double speedup_sum = 0;
  std::size_t failures = 0;
  for (const core::RequestOutcome& o : outcomes) {
    print_row(o);
    speedup_sum += o.speedup;
    if (o.offloading_failure()) ++failures;
  }
  std::printf("\nmean speedup %.2fx | failures %zu | rejected %zu\n\n",
              speedup_sum / static_cast<double>(summary.offered), failures,
              summary.rejected);
  std::printf("%s", core::to_text(core::snapshot(platform)).c_str());
  print_invariants(stdout, platform.invariants());
  return platform.invariants().ok() ? 0 : 1;
}
