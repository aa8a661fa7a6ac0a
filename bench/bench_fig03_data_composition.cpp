// Reproduces Fig. 3: composition of migrated data per Android VM.
//
// Shape targets: every VM receives its own copy of the mobile code
// (duplicate code transfer, Obs. 3); for workloads without file payloads
// (ChessGame, Linpack) the code accounts for > 50 % of migrated data.
#include <cstdint>
#include <cstdio>
#include <map>

#include "bench_util.hpp"

using namespace rattrap;

int main() {
  std::printf(
      "Fig. 3 — Composition of migrated (uploaded) data per Android VM\n");
  for (const auto kind : bench::paper_workloads()) {
    const auto stream = bench::paper_stream(kind);
    core::Platform platform(
        core::make_config(core::PlatformKind::kVmCloud));
    // Each completed session's upload, grouped by the VM that served it.
    std::map<std::uint32_t, net::TrafficAccount> per_vm;
    for (const auto& outcome : platform.run(stream)) {
      if (!outcome.rejected) per_vm[outcome.env_id].merge(outcome.traffic);
    }

    bench::print_rule('=');
    std::printf("(%s)\n", workloads::to_string(kind));
    std::printf("%6s %14s %16s %14s %8s\n", "VM", "code[KB]",
                "files+params[KB]", "control[KB]", "code%");
    bench::print_rule();
    for (const auto& [env, traffic] : per_vm) {
      const double code =
          static_cast<double>(
              traffic.up_bytes(net::MessageType::kMobileCode)) /
          1024.0;
      const double files =
          static_cast<double>(
              traffic.up_bytes(net::MessageType::kFileParams)) /
          1024.0;
      const double control =
          static_cast<double>(traffic.up_bytes(net::MessageType::kControl)) /
          1024.0;
      const double total = code + files + control;
      std::printf("%6u %14.1f %16.1f %14.1f %7.1f%%\n", env, code, files,
                  control, total > 0 ? 100.0 * code / total : 0.0);
    }
  }
  std::printf(
      "\npaper check: ChessGame/Linpack mobile code > 50%% of migrated "
      "data; each VM receives a full code copy\n");
  return 0;
}
