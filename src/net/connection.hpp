// A device ↔ cloud connection over one link.
//
// Connections sample their timing from the link model and keep per-class
// traffic accounts, which the Fig. 3 / Table II benches aggregate.
#pragma once

#include <cstdint>

#include "net/link.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rattrap::net {

class Connection {
 public:
  Connection(const Link& link, sim::Rng rng)
      : link_(link), rng_(std::move(rng)) {}

  /// Samples connection establishment (TCP handshake) duration.
  sim::SimDuration establish();

  [[nodiscard]] bool established() const { return established_; }

  /// Uploads a message (device → cloud); returns the sampled duration.
  /// Requires an established connection.
  sim::SimDuration upload(const Message& message);

  /// Downloads a message (cloud → device).
  sim::SimDuration download(const Message& message);

  /// Closes the connection (subsequent transfers require re-establish).
  void close() { established_ = false; }

  [[nodiscard]] const TrafficAccount& traffic() const { return traffic_; }
  [[nodiscard]] const Link& link() const { return link_; }

  /// The instruments a connection counts into: handshakes into
  /// net.connects, per-message traffic into net.messages.* .
  struct Metrics {
    obs::Counter* connects = nullptr;
    obs::Counter* messages_up = nullptr;
    obs::Counter* messages_down = nullptr;
  };

  /// Looks the three instruments up in `metrics` (creating them) — once
  /// per registry, however many connections count into it.
  [[nodiscard]] static Metrics resolve_metrics(obs::MetricsRegistry& metrics);

  /// Attaches resolved instruments; a default Metrics{} detaches.
  void set_metrics(const Metrics& metrics) { metrics_ = metrics; }

 private:
  const Link& link_;
  sim::Rng rng_;
  TrafficAccount traffic_;
  bool established_ = false;
  Metrics metrics_;
};

}  // namespace rattrap::net
