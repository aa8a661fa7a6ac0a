// Network link models for the four mobile scenarios of §VI-A.
//
//   LAN WiFi — same LAN as the server, stable and fast.
//   WAN WiFi — ~60 ms latency via public IP, stable.
//   3G       — unstable, high latency, 0.38 Mbps up / 0.09 Mbps down.
//   4G       — 48.97 Mbps up / 7.64 Mbps down, less stable than WiFi.
//
// "Up" is device → cloud (offload uploads), "down" is cloud → device.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rattrap::net {

struct LinkConfig {
  std::string name;
  double up_mbps = 1.0;        ///< device → cloud bandwidth
  double down_mbps = 1.0;      ///< cloud → device bandwidth
  sim::SimDuration rtt = 0;    ///< mean round-trip time
  double jitter_sigma = 0.0;   ///< lognormal sigma on one-way latency
  double loss = 0.0;           ///< packet loss probability
};

/// Scenario presets with the paper's measured parameters.
[[nodiscard]] LinkConfig lan_wifi();
[[nodiscard]] LinkConfig wan_wifi();
[[nodiscard]] LinkConfig cellular_3g();
[[nodiscard]] LinkConfig cellular_4g();

/// All four presets, in the order the paper's Fig. 10 charts them.
[[nodiscard]] const std::vector<LinkConfig>& all_scenarios();

class Link {
 public:
  explicit Link(LinkConfig config) : config_(std::move(config)) {}

  /// The radio attached now (the last handoff's, once one happened).
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  /// Attaches `config` with no outage pending: how a run that replays a
  /// handoff plan starts from its base radio.
  void reset(LinkConfig config) {
    config_ = std::move(config);
    down_until_ = 0;
  }

  /// A device handoff at `now` (WiFi↔3G/4G mid-session).  Transfers
  /// already in flight keep their sampled durations; every later sample
  /// uses the new radio, on every Connection at once (they hold a
  /// reference to this Link).  `outage` > 0 is a hard handover: the radio
  /// is detached until now + outage.  Counts into mobility.*; returns the
  /// name of the radio handed off from.
  std::string handoff(const LinkConfig& to, sim::SimDuration outage,
                      sim::SimTime now);

  /// How long a radio operation starting at `now` waits for the radio to
  /// attach (0 when attached).
  [[nodiscard]] sim::SimDuration stall(sim::SimTime now) const {
    return down_until_ > now ? down_until_ - now : 0;
  }

  /// Counts one session that stalled through an outage and resumed.
  void note_resumption();

  /// Attaches a fault injector: transfers then consult it for latency
  /// spikes (kNetDelay) and corruption-forced retransmissions
  /// (kNetCorrupt). nullptr detaches (clean path).
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Attaches a metrics registry: transfers count into net.up.* /
  /// net.down.*, fault perturbations into net.fault.* and handoffs into
  /// mobility.* (docs/OBSERVABILITY.md). nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// One-way latency sample (jittered half-RTT).
  [[nodiscard]] sim::SimDuration latency(sim::Rng& rng) const;

  /// TCP-style connection establishment: SYN / SYN-ACK / ACK ≈ 1.5 RTT,
  /// with loss-induced SYN retransmission (3 s timeout) when unlucky.
  [[nodiscard]] sim::SimDuration connect_time(sim::Rng& rng) const;

  /// Duration of transferring `bytes` device → cloud.
  [[nodiscard]] sim::SimDuration upload_time(std::uint64_t bytes,
                                             sim::Rng& rng) const;

  /// Duration of transferring `bytes` cloud → device.
  [[nodiscard]] sim::SimDuration download_time(std::uint64_t bytes,
                                               sim::Rng& rng) const;

 private:
  [[nodiscard]] sim::SimDuration transfer_time(std::uint64_t bytes,
                                               double mbps,
                                               sim::Rng& rng) const;
  LinkConfig config_;
  sim::SimTime down_until_ = 0;  ///< radio detached until (0 = attached)
  sim::FaultInjector* faults_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< mobility.*, on first use
  // Cached instrument handles (stable for the registry's lifetime);
  // transfers are const, hence mutable.
  mutable obs::Counter* up_transfers_ = nullptr;
  mutable obs::Counter* up_bytes_ = nullptr;
  mutable obs::Counter* down_transfers_ = nullptr;
  mutable obs::Counter* down_bytes_ = nullptr;
  mutable obs::Counter* fault_corrupted_ = nullptr;
  mutable obs::Counter* fault_delayed_ = nullptr;
};

}  // namespace rattrap::net
