// Strict value parsing shared by the CLI tools (loadgen, experiments,
// rattrap).
//
// std::strtod-style parsing silently turns garbage into 0, which lets a
// typo'd flag run a whole sweep with default values — the failure mode
// the experiment harness exists to prevent.  These helpers accept a
// value only when the entire token parses and is in range; callers turn
// a false return into a usage error and a nonzero exit.  Each shared
// vocabulary (workload kind, arrival process, rate profile) has exactly
// one parser here, so the tools cannot drift apart.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

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

// One overload per destination type, so flag_value() reads any flag.
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

/// Parses the value token of `flag` into `out`.  A missing (nullptr) or
/// malformed token prints "bad value for <flag>: <token>" and fails.
template <typename T>
bool flag_value(const char* flag, const char* token, T& out) {
  if (parse_token(token, out)) return true;
  std::fprintf(stderr, "bad value for %s: %s\n", flag,
               token == nullptr ? "(missing)" : token);
  return false;
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
