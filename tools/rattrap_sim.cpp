// rattrap_sim — command-line experiment driver.
//
// Runs one platform × workload × network experiment and prints per-request
// results (human table or CSV) plus a summary.  Everything the benches do
// is reachable from here, which makes the platform scriptable:
//
//   rattrap_sim --platform rattrap --workload ocr --count 20 --net LAN
//   rattrap_sim --platform vm --workload chess --csv > chess_vm.csv
//   rattrap_sim --workload virusscan --net 3G --adaptive
//   rattrap_sim --workload chess --trace accesses.csv
//
// Flag values parse strictly (cli_util.hpp): a malformed number, an
// unknown network or a warm pool above the elastic max_warm cap is a
// usage error (exit 2), never a silent default.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/platform.hpp"
#include "core/report.hpp"
#include "obs/json.hpp"
#include "trace/livelab.hpp"
#include "workloads/generator.hpp"

#include "cli_util.hpp"

using namespace rattrap;

namespace {

void usage() {
  std::puts(
      "usage: rattrap_sim [options]\n"
      "  --platform vm|plain|rattrap   cloud platform (default rattrap)\n"
      "  --workload ocr|chess|virusscan|linpack   (default linpack)\n"
      "  --count N        requests (default 20)\n"
      "  --devices N      client devices (default 5)\n"
      "  --gap SECONDS    mean inter-arrival (default 8)\n"
      "  --net LAN|WAN|4G|3G   network scenario (default LAN)\n"
      "  --seed S         stream seed (default 42)\n"
      "  --warm-pool N    pre-booted environments, <= 64 (default 0)\n"
      "  --adaptive       client-side offloading decision\n"
      "  --trace FILE     replay arrivals from a CSV trace (user,ts_us)\n"
      "  --csv            machine-readable per-request output\n"
      "  --faults SPEC    fault plan (docs/FAULTS.md spec string)\n"
      "  --metrics-out FILE   write platform metrics as JSON\n"
      "  --trace-out FILE     write session spans as Chrome trace JSON\n"
      "  --help");
}

struct Options {
  core::PlatformKind platform = core::PlatformKind::kRattrap;
  workloads::Kind workload = workloads::Kind::kLinpack;
  std::uint64_t count = 20;
  std::uint32_t devices = 5;
  double gap_s = 8.0;
  net::LinkConfig link = net::lan_wifi();
  std::uint64_t seed = 42;
  std::uint32_t warm_pool = 0;
  bool adaptive = false;
  bool csv = false;
  std::string trace_file;
  std::string fault_spec;
  std::string metrics_out;
  std::string trace_out;
};

/// The network scenario named `name` (LAN, WAN, 4G, 3G).
std::optional<net::LinkConfig> link_for(const char* name) {
  if (name == nullptr) return std::nullopt;
  for (const auto& link : net::all_scenarios()) {
    if (link.name == name) return link;
  }
  return std::nullopt;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto value = [&](auto& out) {
      return cli::flag_value(arg.c_str(), next(), out);
    };
    if (arg == "--help") {
      usage();
      std::exit(0);
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--adaptive") {
      options.adaptive = true;
    } else if (arg == "--platform") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!std::strcmp(v, "vm")) {
        options.platform = core::PlatformKind::kVmCloud;
      } else if (!std::strcmp(v, "plain")) {
        options.platform = core::PlatformKind::kRattrapWithoutOpt;
      } else if (!std::strcmp(v, "rattrap")) {
        options.platform = core::PlatformKind::kRattrap;
      } else {
        return false;
      }
    } else if (arg == "--workload") {
      if (!value(options.workload)) return false;
    } else if (arg == "--count") {
      if (!value(options.count)) return false;
    } else if (arg == "--devices") {
      if (!value(options.devices)) return false;
    } else if (arg == "--gap") {
      if (!value(options.gap_s)) return false;
    } else if (arg == "--net") {
      const char* v = next();
      const std::optional<net::LinkConfig> link = link_for(v);
      if (!link) {
        std::fprintf(stderr, "unknown network: %s (LAN|WAN|4G|3G)\n",
                     v == nullptr ? "(missing)" : v);
        return false;
      }
      options.link = *link;
    } else if (arg == "--seed") {
      if (!value(options.seed)) return false;
    } else if (arg == "--warm-pool") {
      if (!value(options.warm_pool)) return false;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      options.trace_file = v;
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr) return false;
      options.fault_spec = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.trace_out = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (options.count == 0 || options.devices == 0) {
    std::fprintf(stderr, "--count and --devices must be > 0\n");
    return false;
  }
  if (options.gap_s < 0) {
    std::fprintf(stderr, "--gap must be >= 0\n");
    return false;
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

  std::vector<workloads::OffloadRequest> stream;
  if (!options.trace_file.empty()) {
    const auto trace = trace::load_csv(options.trace_file);
    if (!trace) {
      std::fprintf(stderr, "cannot load trace '%s'\n",
                   options.trace_file.c_str());
      return 1;
    }
    std::vector<std::pair<sim::SimTime, std::uint32_t>> events;
    for (const auto& event : *trace) {
      events.emplace_back(event.time, event.user % options.devices);
    }
    if (events.size() > options.count) events.resize(options.count);
    stream = workloads::make_stream_from_trace(
        options.workload, events,
        workloads::default_size_class(options.workload), options.seed);
  } else {
    workloads::StreamConfig config;
    config.kind = options.workload;
    config.count = options.count;
    config.devices = options.devices;
    config.mean_gap = sim::from_seconds(options.gap_s);
    config.size_class = workloads::default_size_class(options.workload);
    config.seed = options.seed;
    stream = workloads::make_stream(config);
  }

  core::PlatformConfig config =
      core::make_config(options.platform, options.link, options.seed);
  // The pool is sized by the same clamp as the elastic controller's; a
  // request above its cap is an error, not a silently smaller pool.
  if (options.warm_pool > config.elastic.max_warm) {
    std::fprintf(stderr, "--warm-pool must be <= %u (elastic max_warm)\n",
                 config.elastic.max_warm);
    return 2;
  }
  config.elastic.static_target = options.warm_pool;
  config.adaptive_offloading = options.adaptive;
  if (!options.fault_spec.empty()) {
    const auto plan = sim::FaultPlan::parse(options.fault_spec);
    if (!plan) {
      std::fprintf(stderr, "malformed fault spec '%s'\n",
                   options.fault_spec.c_str());
      return 2;
    }
    config.fault_plan = *plan;
  }
  core::Platform platform(config);
  if (!options.trace_out.empty()) platform.trace().enable();
  const auto outcomes = platform.run(stream);

  if (!options.metrics_out.empty() &&
      !obs::write_text_file(options.metrics_out,
                            platform.metrics().to_json())) {
    std::fprintf(stderr, "cannot write metrics to '%s'\n",
                 options.metrics_out.c_str());
    return 1;
  }
  if (!options.trace_out.empty() &&
      !obs::write_text_file(options.trace_out,
                            platform.trace().to_chrome_json())) {
    std::fprintf(stderr, "cannot write trace to '%s'\n",
                 options.trace_out.c_str());
    return 1;
  }

  if (options.csv) {
    std::puts(
        "seq,device,arrival_ms,conn_ms,prep_ms,xfer_ms,comp_ms,"
        "response_ms,local_ms,speedup,up_bytes,down_bytes,cache_hit,"
        "rejected");
    for (const auto& o : outcomes) {
      std::printf(
          "%llu,%u,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%llu,%llu,%d,"
          "%d\n",
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
    return 0;
  }

  std::printf("%s | %s | %s | %zu requests from %u devices\n",
              core::to_string(options.platform),
              workloads::to_string(options.workload),
              options.link.name.c_str(), outcomes.size(), options.devices);
  std::printf("%4s %9s %9s %9s %9s %10s %8s\n", "req", "conn", "prep",
              "xfer", "comp", "response", "speedup");
  double speedup_sum = 0;
  std::size_t failures = 0, rejected = 0;
  for (const auto& o : outcomes) {
    std::printf("%4llu %8.1fms %8.1fms %8.1fms %8.1fms %9.1fms %7.2fx%s\n",
                static_cast<unsigned long long>(o.request.sequence + 1),
                sim::to_millis(o.phases.network_connection),
                sim::to_millis(o.phases.runtime_preparation),
                sim::to_millis(o.phases.data_transfer),
                sim::to_millis(o.phases.computation),
                sim::to_millis(o.response), o.speedup,
                o.rejected ? " REJECTED"
                           : (o.offloading_failure() ? " FAIL" : ""));
    speedup_sum += o.speedup;
    if (o.offloading_failure()) ++failures;
    if (o.rejected) ++rejected;
  }
  std::printf(
      "\nmean speedup %.2fx | failures %zu | rejected %zu\n\n",
      speedup_sum / static_cast<double>(outcomes.size()), failures,
      rejected);
  std::printf("%s", core::to_text(core::snapshot(platform)).c_str());
  return 0;
}
