// Fleet-scale load generation: seeded arrival processes for driving a
// platform with the traffic of very large device fleets.
//
// The paper evaluates with 5 devices; the density argument (§V–VI: ~1 s
// CAC boots, <7.1 MB deltas) is about serving *thousands* of concurrent
// offloading sessions per host.  This engine synthesizes that traffic
// deterministically:
//
//   kPoisson    — open-loop superposed Poisson arrivals at an aggregate
//                 offered rate; devices drawn uniformly from the fleet.
//                 Generated as an unmodulated kMmpp (no state flips).
//   kMmpp       — bursty arrivals from a 2-state Markov-modulated Poisson
//                 process (calm rate / burst_factor × calm rate), the
//                 classic model for flash crowds.
//   kClosedLoop — per-device think time: each simulated device waits an
//                 exponential think period after its previous response
//                 before issuing the next request, optionally stretched
//                 by the platform's backpressure signal.
//   kTraceReplay — empirical arrivals: a recorded (time, device) trace
//                 (LiveLab-style CSV, docs/LOADGEN.md) replayed verbatim,
//                 optionally time-scaled and looped.  What the paper's
//                 §VI-E evaluation does with the LiveLab dataset, wired
//                 into the same driver the synthetic models feed.
//
// Everything is a pure function of (config, seed): same seed ⇒ the
// byte-identical arrival schedule, which the golden determinism tests
// and the saturation bench rely on.  The engine knows nothing about
// core::Platform — the core-side driver (core/load_driver.hpp) adapts
// arrivals into offloading requests and feeds completions back in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rattrap::sim {

enum class ArrivalProcess : std::uint8_t {
  kPoisson = 0,
  kMmpp = 1,
  kClosedLoop = 2,
  kTraceReplay = 3,
};

[[nodiscard]] const char* to_string(ArrivalProcess process);

/// Deterministic time-of-day shaping of the offered rate for the
/// open-loop models (docs/LOADGEN.md, docs/ELASTIC.md).  The profile is
/// a periodic piecewise-constant multiplier staircase (16 steps per
/// period) applied on top of rate_per_s — piecewise-constant so the
/// thinning-free boundary-restart sampling stays exact:
///
///   kFlat    — multiplier 1 everywhere; schedules are byte-identical to
///              the pre-profile generator.
///   kRamp    — triangular: staircase up from 1× to profile_peak_factor
///              over the first half-period, back down over the second.
///   kDiurnal — raised cosine: smooth day/night swing with the trough at
///              phase 0 and the peak at half-period.
///
/// Closed-loop runs ignore the profile (their rate emerges from think
/// times and completions, not an offered schedule).
enum class RateProfile : std::uint8_t {
  kFlat = 0,
  kRamp = 1,
  kDiurnal = 2,
};

[[nodiscard]] const char* to_string(RateProfile profile);

/// Adversarial behaviour of one mix slot (docs/RAC.md).  A profile
/// shapes *what* the slot's requests do — permission probes, priority
/// abuse, inflated transfers, oversized compute — never *when* they
/// arrive: the arrival schedule is byte-identical across profiles, so
/// an attacked run and its unattacked baseline differ only in request
/// content (and the golden-determinism battery holds either way).
enum class AdversaryProfile : std::uint8_t {
  kNone = 0,
  kPermissionProbe = 1,  ///< probes forbidden operations on every request
  kClassFlood = 2,       ///< escalates every request to the interactive lane
  kCacheThrash = 3,      ///< inflated one-shot inputs evicting the shared tmpfs
  kNoisyNeighbor = 4,    ///< oversized compute pinning the serving shard
};

[[nodiscard]] const char* to_string(AdversaryProfile profile);

/// One slice of a multi-class traffic mix: a tenant stream with a QoS
/// class receiving `share` of the offered load.  The class is a plain
/// index (0 = interactive, 1 = standard, 2 = batch, matching
/// core/qos/qos.hpp) so the sim layer stays ignorant of core types.
struct TrafficClassMix {
  std::string tenant;         ///< tenant label ("" ⇒ per-app tenancy)
  std::uint8_t priority = 1;  ///< class index; 1 = standard
  std::uint32_t weight = 1;   ///< DRR tenant weight within the class
  double share = 1.0;         ///< relative share of offered arrivals
  /// Adversarial behaviour of this slot's requests (docs/RAC.md).
  AdversaryProfile adversary = AdversaryProfile::kNone;
};

/// One recorded arrival of an empirical trace (kTraceReplay): device
/// `device` issued a request at virtual time `at`.  Produced by
/// trace::load_csv / trace::generate and mapped into the fleet by the
/// replay generator.
struct TraceArrival {
  SimTime at = 0;
  std::uint32_t device = 0;
};

struct LoadGenConfig {
  ArrivalProcess arrival = ArrivalProcess::kPoisson;

  /// Simulated fleet size; device ids are drawn from [0, devices).
  std::uint32_t devices = 1000;

  /// Total requests offered over the run (the stop condition for every
  /// arrival model).
  std::size_t requests = 1000;

  /// Aggregate offered arrival rate (req/s) for the open-loop models;
  /// the MMPP calm-state rate.
  double rate_per_s = 100.0;

  // -- MMPP (2-state) ---------------------------------------------------
  double burst_factor = 8.0;  ///< burst-state rate = burst_factor × calm
  double mean_burst_s = 2.0;  ///< exponential burst-state holding time
  double mean_calm_s = 10.0;  ///< exponential calm-state holding time

  // -- Rate profile (open-loop models only) -----------------------------
  RateProfile profile = RateProfile::kFlat;
  double profile_period_s = 60.0;     ///< one full profile cycle
  double profile_peak_factor = 8.0;   ///< peak multiplier over rate_per_s

  // -- Flash crowd (open-loop models only) ------------------------------
  // A one-shot multiplicative rate surge layered on top of whatever
  // profile is active — the "everyone opens the app at once" event on an
  // otherwise ordinary diurnal day.  Active when flash_factor > 1 and
  // flash_duration_s > 0; the window edges are exact rate boundaries
  // (the in-flight exponential gap restarts there, like profile steps).
  double flash_at_s = 0.0;        ///< surge onset (virtual seconds)
  double flash_duration_s = 0.0;  ///< surge length; 0 disables
  double flash_factor = 1.0;      ///< rate multiplier inside the window

  // -- Trace replay (kTraceReplay) --------------------------------------
  /// Recorded arrivals to replay, any order (the generator sorts them).
  /// Trace device ids are folded into [0, devices) so a small fleet can
  /// replay a many-user trace.
  std::vector<TraceArrival> trace;
  /// Virtual-time multiplier on trace timestamps: 0.5 replays the trace
  /// at double speed (every gap halved).  Must be > 0.
  double trace_time_scale = 1.0;
  /// Times the trace is played back to back; repeat k shifts every
  /// timestamp by k × (trace span + one mean gap).
  std::uint32_t trace_repeat = 1;

  // -- Closed loop ------------------------------------------------------
  /// Mean exponential think time between a device's response and its
  /// next request.
  double think_time_s = 1.0;
  /// Think-time multiplier at full backpressure: a device observing
  /// backpressure b in [0, 1] waits think × (1 + b × (slowdown − 1)).
  double backpressure_slowdown = 4.0;

  /// Multi-class traffic mix.  Empty ⇒ one anonymous standard-class
  /// stream (every arrival gets mix_index 0).  Open-loop models draw the
  /// mix slot per arrival (shares weight the draw); closed-loop runs pin
  /// each device to one slot (mix_for_device) so a device's class never
  /// flaps mid-run.
  std::vector<TrafficClassMix> mix;

  std::uint64_t seed = 1;
};

/// One synthetic arrival: request `sequence` from `device_id` at `at`,
/// belonging to mix slot `mix_index` (0 when no mix is configured).
struct Arrival {
  std::uint64_t sequence = 0;
  std::uint32_t device_id = 0;
  SimTime at = 0;
  std::uint32_t mix_index = 0;
};

/// Deterministic mix slot for a device: closed-loop runs pin each device
/// to one mix entry for its whole lifetime.  Pure in (config, device);
/// returns 0 when the mix has at most one entry.
[[nodiscard]] std::uint32_t mix_for_device(const LoadGenConfig& config,
                                           std::uint32_t device);

/// The profile's rate multiplier in effect at virtual time `at` (1.0 for
/// kFlat or a degenerate period), including any active flash-crowd
/// surge.  Pure in (config, at) — what the forecaster benches plot the
/// offered-rate curve with.
[[nodiscard]] double profile_multiplier(const LoadGenConfig& config,
                                        SimTime at);

/// Open-loop arrival schedule (kPoisson / kMmpp / kTraceReplay;
/// kClosedLoop yields only the initial per-device staggered arrivals,
/// capped at config.requests — the rest of a closed-loop run is
/// generated online by ClosedLoopSource).  Deterministic in config;
/// arrivals are time-sorted with dense sequences.
[[nodiscard]] std::vector<Arrival> make_arrivals(const LoadGenConfig& config);

/// Requests a run of `config` offers: config.requests, or fewer for a
/// trace replay whose repeated trace ends first.  The budget the
/// accounting identity holds a run's offered count to.
[[nodiscard]] std::size_t planned_requests(const LoadGenConfig& config);

/// Online think-time source for closed-loop runs.  The driver asks for
/// the next think period whenever a device's request finishes; draws are
/// per-device substreams, so one device's completion count never perturbs
/// another device's schedule.
class ClosedLoopSource {
 public:
  /// `issued` requests already count against the budget — the seed wave
  /// make_arrivals yields — so the first take() continues after them.
  explicit ClosedLoopSource(const LoadGenConfig& config,
                            std::uint64_t issued = 0);

  /// Think period before `device` issues its next request, given the
  /// platform backpressure signal in [0, 1] at completion time.
  [[nodiscard]] SimDuration think(std::uint32_t device, double backpressure);

  /// True while the offered-request budget has not been exhausted; each
  /// take() consumes one unit and returns the next global sequence.
  [[nodiscard]] bool exhausted() const { return issued_ >= budget_; }
  [[nodiscard]] std::uint64_t take() { return issued_++; }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }

 private:
  LoadGenConfig config_;
  Rng master_;
  std::vector<Rng> device_rngs_;  ///< lazily forked per device
  std::uint64_t issued_ = 0;
  std::uint64_t budget_ = 0;
};

}  // namespace rattrap::sim
