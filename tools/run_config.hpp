// The run-config key table shared by loadgen and experiments.
//
// One run — a device fleet offloading through the Dispatcher under some
// link, fault, pool and access-control policy — is described by one set
// of keys.  A manifest section spells them `burst_factor = 8`; loadgen's
// argv spells the same key `--burst-factor 8`.  Each key has one strict
// value parser (cli_util.hpp) and one destination in PlatformConfig or
// LoadDriverConfig.  Every present key is checked, then the config is
// built in the table's fixed order, whatever order the keys were given
// in (EXPERIMENTS.md lists the keys).
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/load_driver.hpp"
#include "core/platform.hpp"

namespace rattrap::cli {

/// Everything one run needs: the platform and the load that drives it.
struct RunConfig {
  core::PlatformConfig platform;
  core::LoadDriverConfig driver;
};

/// Key name → value as written (a manifest section, or loadgen's argv).
using RunKeys = std::map<std::string, std::string>;

/// How diagnostics name a key: loadgen's "--burst-factor" or a
/// manifest's "'burst_factor'".
enum class KeyStyle { kFlag, kManifest };

/// Checks every key in `keys` and builds the run.  `load` carries the
/// front end's load defaults (fleet size, request count); every other
/// default is the table's.  std::nullopt + a diagnostic naming the key
/// on an unknown key, a malformed value, a broken cross-key rule or an
/// unreadable trace file.
[[nodiscard]] std::optional<RunConfig> build_run_config(
    const RunKeys& keys, KeyStyle style, core::LoadDriverConfig load,
    std::string& error);

/// Reads argv[i], a "--key-name" flag, and its value into `keys`,
/// leaving i on the last token consumed.  An on/off key given bare
/// means "on"; a repeated mix/faults/handoff flag appends its entries.
/// false + a diagnostic on an unknown flag or a missing value.
bool read_flag(int argc, char** argv, int& i, RunKeys& keys,
               std::string& error);

/// One "  --key-name V  help" line per key, in table order.
void print_flag_help(std::FILE* out);

}  // namespace rattrap::cli
