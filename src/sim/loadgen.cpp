#include "sim/loadgen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace rattrap::sim {

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kMmpp:
      return "mmpp";
    case ArrivalProcess::kClosedLoop:
      return "closed-loop";
    case ArrivalProcess::kTraceReplay:
      return "trace-replay";
  }
  return "?";
}

const char* to_string(RateProfile profile) {
  switch (profile) {
    case RateProfile::kFlat:
      return "flat";
    case RateProfile::kRamp:
      return "ramp";
    case RateProfile::kDiurnal:
      return "diurnal";
  }
  return "?";
}

const char* to_string(AdversaryProfile profile) {
  switch (profile) {
    case AdversaryProfile::kNone:
      return "none";
    case AdversaryProfile::kPermissionProbe:
      return "probe";
    case AdversaryProfile::kClassFlood:
      return "flood";
    case AdversaryProfile::kCacheThrash:
      return "thrash";
    case AdversaryProfile::kNoisyNeighbor:
      return "noisy";
  }
  return "?";
}

namespace {

/// Steps per profile period.  Piecewise-constant with few steps keeps
/// the boundary-restart sampling cheap while the staircase still tracks
/// the intended shape closely.
constexpr std::uint64_t kProfileSteps = 16;

/// Whether the profile actually shapes the rate (kFlat and degenerate
/// parameterizations collapse to the unshaped generator byte-for-byte).
bool profile_active(const LoadGenConfig& config) {
  return config.profile != RateProfile::kFlat &&
         config.profile_period_s > 0.0 && config.profile_peak_factor > 1.0;
}

SimDuration profile_step_length(const LoadGenConfig& config) {
  return std::max<SimDuration>(
      1, from_seconds(config.profile_period_s /
                      static_cast<double>(kProfileSteps)));
}

/// Whether a flash-crowd surge is configured at all.
bool flash_active(const LoadGenConfig& config) {
  return config.flash_factor > 1.0 && config.flash_duration_s > 0.0 &&
         config.flash_at_s >= 0.0;
}

/// The surge's rate multiplier at `at` (1 outside the window).
double flash_multiplier(const LoadGenConfig& config, SimTime at) {
  if (!flash_active(config)) return 1.0;
  const SimTime start = from_seconds(config.flash_at_s);
  const SimTime end = start + from_seconds(config.flash_duration_s);
  return (at >= start && at < end) ? config.flash_factor : 1.0;
}

/// The next instant strictly after `at` where the rate multiplier
/// changes and an in-flight exponential gap must restart (memorylessness
/// makes the restart exact, as with the MMPP flip): the next profile
/// step boundary or a flash-window edge, whichever lands first.
SimTime next_profile_boundary(const LoadGenConfig& config, SimTime at) {
  SimTime boundary = std::numeric_limits<SimTime>::max();
  if (profile_active(config)) {
    const SimDuration step = profile_step_length(config);
    boundary = (at / step + 1) * step;
  }
  if (flash_active(config)) {
    const SimTime start = from_seconds(config.flash_at_s);
    const SimTime end = start + from_seconds(config.flash_duration_s);
    if (at < start) boundary = std::min(boundary, start);
    else if (at < end) boundary = std::min(boundary, end);
  }
  return boundary;
}

}  // namespace

double profile_multiplier(const LoadGenConfig& config, SimTime at) {
  if (!profile_active(config)) return flash_multiplier(config, at);
  const SimDuration step = profile_step_length(config);
  const double phase =
      static_cast<double>((at / step) % kProfileSteps) /
      static_cast<double>(kProfileSteps);
  double shape = 0.0;  // 0 = trough (1×), 1 = peak (peak_factor×)
  switch (config.profile) {
    case RateProfile::kRamp:
      // Triangular: staircase up over the first half-period, down over
      // the second.
      shape = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
      break;
    case RateProfile::kDiurnal:
      // Raised cosine: trough at phase 0, peak at the half-period.
      shape = 0.5 * (1.0 - std::cos(2.0 * 3.14159265358979323846 * phase));
      break;
    case RateProfile::kFlat:
      break;
  }
  return (1.0 + (config.profile_peak_factor - 1.0) * shape) *
         flash_multiplier(config, at);
}

namespace {

/// Share-weighted mix slot draw.  Degenerate mixes (≤1 entry, all shares
/// non-positive) collapse to slot 0 without consuming a draw, so adding
/// an empty mix never perturbs existing arrival schedules.
std::uint32_t pick_mix(const LoadGenConfig& config, Rng& rng) {
  if (config.mix.size() <= 1) return 0;
  double total = 0.0;
  for (const auto& entry : config.mix) total += std::max(entry.share, 0.0);
  if (total <= 0.0) return 0;
  double x = rng.uniform() * total;
  for (std::size_t i = 0; i < config.mix.size(); ++i) {
    x -= std::max(config.mix[i].share, 0.0);
    if (x < 0.0) return static_cast<std::uint32_t>(i);
  }
  return static_cast<std::uint32_t>(config.mix.size() - 1);
}

/// The one open-loop generator.  kMmpp is a 2-state Markov-modulated
/// Poisson process (calm rate / burst_factor × calm rate); kPoisson is
/// the same loop unmodulated — one state that never flips, so it never
/// draws from "loadgen-states".  Each process keeps its own rate floor.
std::vector<Arrival> mmpp_arrivals(const LoadGenConfig& config) {
  const bool modulated = config.arrival == ArrivalProcess::kMmpp;
  std::vector<Arrival> arrivals;
  arrivals.reserve(config.requests);
  Rng gaps = Rng(config.seed).fork("loadgen-gaps");
  Rng devices = Rng(config.seed).fork("loadgen-devices");
  Rng states = Rng(config.seed).fork("loadgen-states");
  Rng mixes = Rng(config.seed).fork("loadgen-mix");
  const double calm_rate =
      modulated ? std::max(config.rate_per_s, 1e-9)
                : (config.rate_per_s > 0 ? config.rate_per_s : 1.0);
  const double burst_rate = calm_rate * std::max(config.burst_factor, 1.0);
  bool bursting = false;
  SimTime clock = 0;
  // Next modulating-state flip; holding times are exponential per state.
  SimTime flip_at =
      modulated ? from_seconds(states.exponential(
                      std::max(config.mean_calm_s, 1e-9)))
                : std::numeric_limits<SimTime>::max();
  for (std::size_t i = 0; i < config.requests; ++i) {
    for (;;) {
      const double rate = (bursting ? burst_rate : calm_rate) *
                          profile_multiplier(config, clock);
      const SimTime candidate =
          clock + from_seconds(gaps.exponential(1.0 / rate));
      // The gap must restart at whichever rate change lands first: the
      // modulating-state flip or a profile step boundary.
      const SimTime boundary =
          std::min(flip_at, next_profile_boundary(config, clock));
      if (candidate < boundary) {
        clock = candidate;
        break;
      }
      // A rate change preempted this gap: restart it from that instant
      // at the new rate (memorylessness makes the restart exact, not an
      // approximation).
      clock = boundary;
      if (modulated && boundary == flip_at) {
        bursting = !bursting;
        const double hold_s =
            bursting ? config.mean_burst_s : config.mean_calm_s;
        flip_at = clock +
                  from_seconds(states.exponential(std::max(hold_s, 1e-9)));
      }
    }
    Arrival arrival;
    arrival.sequence = i;
    arrival.device_id = static_cast<std::uint32_t>(
        devices.uniform_int(0, static_cast<std::int64_t>(config.devices) - 1));
    arrival.at = clock;
    arrival.mix_index = pick_mix(config, mixes);
    arrivals.push_back(arrival);
  }
  return arrivals;
}

std::vector<Arrival> trace_replay_arrivals(const LoadGenConfig& config) {
  // Sort a copy of the recorded events (empirical exports are not always
  // time-ordered) with the device id as tie-breaker so equal timestamps
  // replay in one canonical order.
  std::vector<TraceArrival> events = config.trace;
  std::sort(events.begin(), events.end(),
            [](const TraceArrival& a, const TraceArrival& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.device < b.device;
            });
  const double scale =
      config.trace_time_scale > 0.0 ? config.trace_time_scale : 1.0;
  // Repeats are laid back to back: the trace span plus one mean
  // inter-arrival gap separates the last event of one pass from the
  // first of the next, so looping never stacks two arrivals.
  SimTime span = events.empty() ? 0 : events.back().at - events.front().at;
  if (!events.empty() && events.size() > 1) {
    span += span / static_cast<SimTime>(events.size() - 1);
  } else if (!events.empty()) {
    span += kSecond;
  }
  const std::size_t total = planned_requests(config);
  std::vector<Arrival> arrivals;
  arrivals.reserve(total);
  Rng mixes = Rng(config.seed).fork("loadgen-mix");
  const SimTime origin = events.empty() ? 0 : events.front().at;
  for (std::size_t i = 0; i < total; ++i) {
    const TraceArrival& event = events[i % events.size()];
    const SimTime pass_shift =
        static_cast<SimTime>(i / events.size()) * std::max<SimTime>(span, 1);
    Arrival arrival;
    arrival.sequence = i;
    arrival.device_id =
        config.devices > 0 ? event.device % config.devices : event.device;
    arrival.at = static_cast<SimTime>(
        static_cast<double>(event.at - origin + pass_shift) * scale);
    arrival.mix_index = pick_mix(config, mixes);
    arrivals.push_back(arrival);
  }
  return arrivals;
}

std::vector<Arrival> closed_loop_initial_arrivals(
    const LoadGenConfig& config) {
  // Each device issues its first request after one think period, so a
  // 10^5-device fleet ramps up over ~think_time_s instead of stampeding
  // the dispatcher at t=0.
  const std::uint64_t first_wave =
      std::min<std::uint64_t>(config.devices, config.requests);
  std::vector<Arrival> arrivals;
  arrivals.reserve(first_wave);
  Rng stagger = Rng(config.seed).fork("loadgen-stagger");
  for (std::uint64_t device = 0; device < first_wave; ++device) {
    Arrival arrival;
    arrival.device_id = static_cast<std::uint32_t>(device);
    arrival.at = from_seconds(
        stagger.exponential(std::max(config.think_time_s, 1e-6)));
    arrival.mix_index =
        mix_for_device(config, static_cast<std::uint32_t>(device));
    arrivals.push_back(arrival);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.device_id < b.device_id;
            });
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].sequence = i;
  }
  return arrivals;
}

}  // namespace

std::uint32_t mix_for_device(const LoadGenConfig& config,
                             std::uint32_t device) {
  if (config.mix.size() <= 1) return 0;
  Rng rng = Rng(config.seed).fork("loadgen-mix").fork(device);
  return pick_mix(config, rng);
}

std::vector<Arrival> make_arrivals(const LoadGenConfig& config) {
  assert(config.devices > 0);
  switch (config.arrival) {
    case ArrivalProcess::kPoisson:
    case ArrivalProcess::kMmpp:
      return mmpp_arrivals(config);
    case ArrivalProcess::kClosedLoop:
      return closed_loop_initial_arrivals(config);
    case ArrivalProcess::kTraceReplay:
      return trace_replay_arrivals(config);
  }
  return {};
}

std::size_t planned_requests(const LoadGenConfig& config) {
  if (config.arrival != ArrivalProcess::kTraceReplay) return config.requests;
  const std::uint32_t repeats = std::max<std::uint32_t>(1, config.trace_repeat);
  return std::min<std::size_t>(config.requests,
                               config.trace.size() * repeats);
}

ClosedLoopSource::ClosedLoopSource(const LoadGenConfig& config,
                                   std::uint64_t issued)
    : config_(config),
      master_(Rng(config.seed).fork("loadgen-think")),
      issued_(issued),
      budget_(config.requests) {}

SimDuration ClosedLoopSource::think(std::uint32_t device,
                                    double backpressure) {
  if (device_rngs_.size() <= device) {
    const std::size_t old = device_rngs_.size();
    device_rngs_.reserve(device + 1);
    for (std::size_t i = old; i <= device; ++i) {
      device_rngs_.push_back(master_.fork(static_cast<std::uint64_t>(i)));
    }
  }
  const double bp = std::clamp(backpressure, 0.0, 1.0);
  const double stretch =
      1.0 + bp * (std::max(config_.backpressure_slowdown, 1.0) - 1.0);
  const double think_s =
      device_rngs_[device].exponential(
          std::max(config_.think_time_s, 1e-6)) *
      stretch;
  return std::max<SimDuration>(1, from_seconds(think_s));
}

}  // namespace rattrap::sim
