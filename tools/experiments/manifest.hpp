// Experiment-manifest format for the sweep driver (tools/experiments).
//
// A manifest is an INI-like text file naming experiments and the
// parameter grid each one sweeps (EXPERIMENTS.md documents every key):
//
//   # comment
//   [handoff-wifi-3g]
//   scenario = handoff          # grouping label for reports
//   quick    = true             # member of the --quick curated subset
//   arrival  = poisson
//   rate     = 40
//   seed     = 1|2              # '|' separates grid-axis values
//   handoff  = 3g:4:1.5
//   expect.accounting = identity
//   expect.min.radio_slices = 2
//
// Every non-expect key with more than one '|'-separated value is a grid
// axis; an experiment's runs are the cartesian product of its axes, in
// deterministic odometer order (last axis fastest).  `expect.*` keys are
// pass/fail criteria evaluated per run; `full.<key>` values override
// `<key>` when the sweep runs without --quick, so one manifest carries
// both the CI-sized and the full-scale shape of an experiment.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rattrap::experiments {

/// One named experiment: keys in declaration order, each with its list
/// of grid values (size 1 = fixed parameter).
struct Experiment {
  std::string name;
  std::vector<std::pair<std::string, std::vector<std::string>>> keys;

  /// The values of `key`, or nullptr when absent.
  [[nodiscard]] const std::vector<std::string>* find(
      std::string_view key) const;

  /// Boolean key ("true"/"on"/"1" ⇒ true); `fallback` when absent.
  [[nodiscard]] bool flag(std::string_view key, bool fallback) const;
};

/// `scenario` and `quick` shape the sweep, not the run; every other
/// non-expect key is a run-config key (run_config.hpp).
[[nodiscard]] bool is_sweep_key(std::string_view key);

struct Manifest {
  std::vector<Experiment> experiments;

  [[nodiscard]] const Experiment* find(std::string_view name) const;
};

/// Parses manifest text; std::nullopt + a diagnostic in `error` on any
/// malformed line (unnamed keys, duplicate sections, grid values on
/// expect.*/full.* keys, empty axis elements).
[[nodiscard]] std::optional<Manifest> parse_manifest(std::string_view text,
                                                     std::string& error);

/// One resolved grid point of an experiment, ready to execute.
struct RunSpec {
  std::string experiment;
  std::size_t point = 0;
  /// Axis assignment ("rate=40,seed=2"), or "base" for a gridless run.
  std::string label;
  std::map<std::string, std::string> params;  ///< resolved non-expect keys
  std::map<std::string, std::string> expect;  ///< criteria, prefix stripped
};

/// Cartesian-product size of the experiment's grid; 0 with a diagnostic
/// when a grid is malformed (a '|' list on an expect.*/full.* key).
[[nodiscard]] std::size_t grid_size(const Experiment& experiment,
                                    std::string& error);

/// Resolves grid point `point` (odometer order, last declared axis
/// fastest).  `quick` false applies the full.<key> overrides.
[[nodiscard]] std::optional<RunSpec> resolve_point(
    const Experiment& experiment, std::size_t point, bool quick,
    std::string& error);

/// Filesystem-safe form of a run label (axis separators kept readable).
[[nodiscard]] std::string sanitize_label(std::string_view label);

}  // namespace rattrap::experiments
