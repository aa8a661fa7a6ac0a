// Scenario executor: maps one resolved RunSpec onto a PlatformConfig +
// LoadDriverConfig through the run-config key table (run_config.hpp),
// runs the load to completion, and reduces the result
// to a flat, deterministic metric map the sweep driver evaluates
// criteria against (EXPERIMENTS.md lists every manifest key and every
// emitted metric).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "manifest.hpp"

namespace rattrap::experiments {

/// Outcome of executing one run.  Metrics and info are insertion-ordered
/// so serialized artifacts are byte-stable run to run.
struct RunResult {
  bool ok = false;
  std::string error;  ///< set when !ok (config or execution failure)
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  [[nodiscard]] const double* metric(std::string_view name) const;

  /// Flat key=value lines ("m.<metric>=", "i.<info>=", trailing "ok=1")
  /// — the child→parent result channel; trivially parseable without a
  /// JSON reader.
  [[nodiscard]] std::string to_kv() const;

  /// Rich per-run artifact (params + metrics + info).
  [[nodiscard]] std::string to_json(const RunSpec& spec) const;
};

/// Executes `spec` in-process.  Never throws; config errors (unknown
/// keys, bad values, missing trace files) come back as !ok with a
/// diagnostic naming the key.
[[nodiscard]] RunResult execute_run(const RunSpec& spec);

}  // namespace rattrap::experiments
