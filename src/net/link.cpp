#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

namespace rattrap::net {

LinkConfig lan_wifi() {
  return LinkConfig{"LAN", 60.0, 60.0, sim::from_millis(3.0), 0.05, 0.0005};
}

LinkConfig wan_wifi() {
  return LinkConfig{"WAN", 20.0, 20.0, sim::from_millis(60.0), 0.08, 0.002};
}

LinkConfig cellular_3g() {
  // The paper measures 0.38 Mbps upstream / 0.09 Mbps downstream.
  return LinkConfig{"3G", 0.38, 0.09, sim::from_millis(250.0), 0.35, 0.02};
}

LinkConfig cellular_4g() {
  // 48.97 Mbps upstream / 7.64 Mbps downstream; less stable than WiFi.
  return LinkConfig{"4G", 48.97, 7.64, sim::from_millis(45.0), 0.20, 0.008};
}

const std::vector<LinkConfig>& all_scenarios() {
  static const std::vector<LinkConfig> scenarios = {
      lan_wifi(), wan_wifi(), cellular_4g(), cellular_3g()};
  return scenarios;
}

void Link::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    up_transfers_ = up_bytes_ = down_transfers_ = down_bytes_ = nullptr;
    fault_corrupted_ = fault_delayed_ = nullptr;
    return;
  }
  up_transfers_ = &metrics->counter("net.up.transfers");
  up_bytes_ = &metrics->counter("net.up.bytes");
  down_transfers_ = &metrics->counter("net.down.transfers");
  down_bytes_ = &metrics->counter("net.down.bytes");
  fault_corrupted_ = &metrics->counter("net.fault.corrupted");
  fault_delayed_ = &metrics->counter("net.fault.delayed");
}

std::string Link::handoff(const LinkConfig& to, sim::SimDuration outage,
                          sim::SimTime now) {
  std::string from = std::exchange(config_, to).name;
  if (metrics_ != nullptr) {
    metrics_->counter("mobility.handoffs").inc();
    metrics_->counter("mobility.handoff." + from + "_to_" + to.name).inc();
  }
  if (outage > 0) {
    down_until_ = std::max(down_until_, now + outage);
    if (metrics_ != nullptr) {
      metrics_->counter("mobility.outages").inc();
      metrics_->histogram("mobility.outage_ms").observe(sim::to_millis(outage));
    }
  }
  return from;
}

void Link::note_resumption() {
  if (metrics_ != nullptr) metrics_->counter("mobility.sessions_resumed").inc();
}

sim::SimDuration Link::latency(sim::Rng& rng) const {
  const double base = static_cast<double>(config_.rtt) / 2.0;
  const double jitter =
      config_.jitter_sigma > 0.0
          ? rng.lognormal(0.0, config_.jitter_sigma)
          : 1.0;
  return static_cast<sim::SimDuration>(base * jitter);
}

sim::SimDuration Link::connect_time(sim::Rng& rng) const {
  sim::SimDuration total = latency(rng) * 3;  // SYN, SYN-ACK, ACK
  // A lost SYN costs the initial RTO (3 s, RFC 6298 initial value).
  while (rng.bernoulli(config_.loss)) {
    total += 3 * sim::kSecond;
  }
  return total;
}

sim::SimDuration Link::transfer_time(std::uint64_t bytes, double mbps,
                                     sim::Rng& rng) const {
  assert(mbps > 0);
  // Effective goodput degrades with loss (Mathis-style back-off simplified
  // to a linear factor; loss rates here are small).
  const double goodput_mbps = mbps * (1.0 - 4.0 * config_.loss);
  const double seconds =
      static_cast<double>(bytes) * 8.0 / (goodput_mbps * 1e6);
  sim::SimDuration total = sim::from_seconds(seconds) + latency(rng);
  if (faults_ != nullptr) {
    if (faults_->should_fire(sim::FaultKind::kNetCorrupt)) {
      // Checksum failure at the receiver: the whole transfer is resent.
      if (fault_corrupted_ != nullptr) fault_corrupted_->inc();
      total += sim::from_seconds(seconds) + latency(rng);
    }
    if (faults_->should_fire(sim::FaultKind::kNetDelay)) {
      // Latency spike (bufferbloat / radio handover): one-off stall.
      if (fault_delayed_ != nullptr) fault_delayed_->inc();
      total += faults_->delay_of(sim::FaultKind::kNetDelay);
    }
  }
  return total;
}

sim::SimDuration Link::upload_time(std::uint64_t bytes,
                                   sim::Rng& rng) const {
  if (up_transfers_ != nullptr) {
    up_transfers_->inc();
    up_bytes_->inc(bytes);
  }
  return transfer_time(bytes, config_.up_mbps, rng);
}

sim::SimDuration Link::download_time(std::uint64_t bytes,
                                     sim::Rng& rng) const {
  if (down_transfers_ != nullptr) {
    down_transfers_->inc();
    down_bytes_->inc(bytes);
  }
  return transfer_time(bytes, config_.down_mbps, rng);
}

}  // namespace rattrap::net
