#include "net/connection.hpp"

#include <cassert>

namespace rattrap::net {

Connection::Metrics Connection::resolve_metrics(
    obs::MetricsRegistry& metrics) {
  return Metrics{&metrics.counter("net.connects"),
                 &metrics.counter("net.messages.up"),
                 &metrics.counter("net.messages.down")};
}

sim::SimDuration Connection::establish() {
  const sim::SimDuration t = link_.connect_time(rng_);
  established_ = true;
  if (metrics_.connects != nullptr) metrics_.connects->inc();
  return t;
}

sim::SimDuration Connection::upload(const Message& message) {
  assert(established_ && "upload on unestablished connection");
  traffic_.record_up(message.type, message.bytes);
  if (metrics_.messages_up != nullptr) metrics_.messages_up->inc();
  return link_.upload_time(message.bytes, rng_);
}

sim::SimDuration Connection::download(const Message& message) {
  assert(established_ && "download on unestablished connection");
  traffic_.record_down(message.type, message.bytes);
  if (metrics_.messages_down != nullptr) metrics_.messages_down->inc();
  return link_.download_time(message.bytes, rng_);
}

}  // namespace rattrap::net
