// Strict value parsing shared by the CLI tools (loadgen, experiments,
// rattrap).
//
// std::strtod-style parsing silently turns garbage into 0, which lets a
// typo'd flag run a whole sweep with default values — the failure mode
// the experiment harness exists to prevent.  These helpers accept a
// value only when the entire token parses and is in range; callers turn
// a false return into a usage error and a nonzero exit.  Each shared
// vocabulary (workload kind, arrival process, rate profile, traffic mix,
// handoff plan, ...) has exactly one parser here, so the tools cannot
// drift apart.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/platform.hpp"
#include "core/qos/qos.hpp"
#include "net/link.hpp"
#include "sim/loadgen.hpp"
#include "workloads/workload.hpp"

namespace rattrap::cli {

/// Whole-token double ("1.5", "2e3"); rejects trailing garbage, empty
/// tokens, inf/nan spellings that strtod would accept.
inline bool parse_double(const char* token, double& out) {
  if (token == nullptr || *token == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  if (end == token || *end != '\0' || errno == ERANGE) return false;
  if (value != value) return false;  // NaN
  if (value == std::numeric_limits<double>::infinity() ||
      value == -std::numeric_limits<double>::infinity()) {
    return false;
  }
  out = value;
  return true;
}

/// Whole-token unsigned 64-bit decimal; rejects signs, trailing garbage.
inline bool parse_u64(const char* token, std::uint64_t& out) {
  if (token == nullptr || *token == '\0' || *token == '-' || *token == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (end == token || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

inline bool parse_u32(const char* token, std::uint32_t& out) {
  std::uint64_t wide = 0;
  if (!parse_u64(token, wide) ||
      wide > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  out = static_cast<std::uint32_t>(wide);
  return true;
}

/// linpack | ocr | chess | virusscan.
inline bool parse_kind(const char* token, workloads::Kind& out) {
  if (token == nullptr) return false;
  const std::string_view s = token;
  if (s == "linpack") out = workloads::Kind::kLinpack;
  else if (s == "ocr") out = workloads::Kind::kOcr;
  else if (s == "chess") out = workloads::Kind::kChess;
  else if (s == "virusscan") out = workloads::Kind::kVirusScan;
  else return false;
  return true;
}

/// poisson | mmpp | closed | closed-loop | trace | trace-replay.
inline bool parse_arrival(const char* token, sim::ArrivalProcess& out) {
  if (token == nullptr) return false;
  const std::string_view s = token;
  if (s == "poisson") out = sim::ArrivalProcess::kPoisson;
  else if (s == "mmpp") out = sim::ArrivalProcess::kMmpp;
  else if (s == "closed" || s == "closed-loop") {
    out = sim::ArrivalProcess::kClosedLoop;
  } else if (s == "trace" || s == "trace-replay") {
    out = sim::ArrivalProcess::kTraceReplay;
  } else {
    return false;
  }
  return true;
}

/// flat | ramp | diurnal.
inline bool parse_profile(const char* token, sim::RateProfile& out) {
  if (token == nullptr) return false;
  const std::string_view s = token;
  if (s == "flat") out = sim::RateProfile::kFlat;
  else if (s == "ramp") out = sim::RateProfile::kRamp;
  else if (s == "diurnal") out = sim::RateProfile::kDiurnal;
  else return false;
  return true;
}

/// Splits `s` on `sep`; "" yields one empty field.
inline std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i != s.size() && s[i] != sep) continue;
    out.emplace_back(s.substr(start, i - start));
    start = i + 1;
  }
  return out;
}

/// on | true | 1, off | false | 0.
inline bool parse_on_off(std::string_view s, bool& out) {
  if (s == "on" || s == "true" || s == "1") out = true;
  else if (s == "off" || s == "false" || s == "0") out = false;
  else return false;
  return true;
}

/// rattrap | rattrap-noopt | vmcloud.
inline bool parse_platform(std::string_view s, core::PlatformKind& out) {
  if (s == "rattrap") out = core::PlatformKind::kRattrap;
  else if (s == "rattrap-noopt") out = core::PlatformKind::kRattrapWithoutOpt;
  else if (s == "vmcloud") out = core::PlatformKind::kVmCloud;
  else return false;
  return true;
}

/// lan | wifi | wan | 3g | 4g (the links keep the paper's LAN|WAN names).
inline bool parse_link(std::string_view s, net::LinkConfig& out) {
  if (s == "lan" || s == "wifi") out = net::lan_wifi();
  else if (s == "wan") out = net::wan_wifi();
  else if (s == "3g") out = net::cellular_3g();
  else if (s == "4g") out = net::cellular_4g();
  else return false;
  return true;
}

/// off | static | predictive.
inline bool parse_pool_mode(std::string_view s,
                            core::elastic::PoolMode& out) {
  if (s == "off") out = core::elastic::PoolMode::kDisabled;
  else if (s == "static") out = core::elastic::PoolMode::kStatic;
  else if (s == "predictive") out = core::elastic::PoolMode::kPredictive;
  else return false;
  return true;
}

/// auto | on | force (armed) or off.
inline bool parse_invariants(std::string_view s, bool& armed) {
  if (s == "auto" || s == "on" || s == "force") armed = true;
  else if (s == "off") armed = false;
  else return false;
  return true;
}

/// none | probe | flood | thrash | noisy (docs/RAC.md).
inline bool parse_adversary(std::string_view s, sim::AdversaryProfile& out) {
  if (s == "none") out = sim::AdversaryProfile::kNone;
  else if (s == "probe") out = sim::AdversaryProfile::kPermissionProbe;
  else if (s == "flood") out = sim::AdversaryProfile::kClassFlood;
  else if (s == "thrash") out = sim::AdversaryProfile::kCacheThrash;
  else if (s == "noisy") out = sim::AdversaryProfile::kNoisyNeighbor;
  else return false;
  return true;
}

/// "tenant:class[:weight[:share[:adversary]]]" entries separated by ';',
/// e.g. "gold:interactive:3:0.25;prober:standard:1:0.2:probe".
inline bool parse_mix(std::string_view spec,
                      std::vector<sim::TrafficClassMix>& out) {
  for (const std::string& entry : split(spec, ';')) {
    const std::vector<std::string> parts = split(entry, ':');
    if (parts.size() < 2 || parts.size() > 5) return false;
    sim::TrafficClassMix mix;
    mix.tenant = parts[0];
    const auto klass = core::qos::parse_class(parts[1]);
    if (!klass) return false;
    mix.priority = static_cast<std::uint8_t>(core::qos::class_index(*klass));
    if (parts.size() > 2 &&
        (!parse_u32(parts[2].c_str(), mix.weight) || mix.weight == 0)) {
      return false;
    }
    if (parts.size() > 3 &&
        (!parse_double(parts[3].c_str(), mix.share) || mix.share <= 0)) {
      return false;
    }
    if (parts.size() > 4 && !parse_adversary(parts[4], mix.adversary)) {
      return false;
    }
    out.push_back(std::move(mix));
  }
  return true;
}

/// "radio:at_s[:outage_s]" entries separated by ';', e.g. "3g:4:1.5".
inline bool parse_handoffs(std::string_view spec,
                           std::vector<core::HandoffEvent>& out) {
  for (const std::string& entry : split(spec, ';')) {
    const std::vector<std::string> parts = split(entry, ':');
    if (parts.size() < 2 || parts.size() > 3) return false;
    core::HandoffEvent event;
    double at_s = 0;
    double outage_s = 0;
    if (!parse_link(parts[0], event.to) ||
        !parse_double(parts[1].c_str(), at_s) || at_s < 0 ||
        (parts.size() > 2 &&
         (!parse_double(parts[2].c_str(), outage_s) || outage_s < 0))) {
      return false;
    }
    event.at = sim::from_seconds(at_s);
    event.outage = sim::from_seconds(outage_s);
    out.push_back(std::move(event));
  }
  return true;
}

/// FNV-1a: the determinism fingerprint the tools print over metrics and
/// summary JSON.
inline std::uint64_t fingerprint64(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// One overload per destination type, so the run-config table parses a
// key straight into its field.
inline bool parse_token(const char* t, double& out) {
  return parse_double(t, out);
}
inline bool parse_token(const char* t, std::uint32_t& out) {
  return parse_u32(t, out);
}
inline bool parse_token(const char* t, std::uint64_t& out) {
  return parse_u64(t, out);
}
inline bool parse_token(const char* t, workloads::Kind& out) {
  return parse_kind(t, out);
}
inline bool parse_token(const char* t, sim::ArrivalProcess& out) {
  return parse_arrival(t, out);
}
inline bool parse_token(const char* t, sim::RateProfile& out) {
  return parse_profile(t, out);
}
inline bool parse_token(const char* t, bool& out) {
  return t != nullptr && parse_on_off(t, out);
}
inline bool parse_token(const char* t, core::elastic::PoolMode& out) {
  return t != nullptr && parse_pool_mode(t, out);
}

inline bool parse_u64(const std::string& token, std::uint64_t& out) {
  return parse_u64(token.c_str(), out);
}
inline bool parse_u32(const std::string& token, std::uint32_t& out) {
  return parse_u32(token.c_str(), out);
}
inline bool parse_double(const std::string& token, double& out) {
  return parse_double(token.c_str(), out);
}

}  // namespace rattrap::cli
