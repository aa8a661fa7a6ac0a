// One seeded scenario of the RAC attack battery (docs/RAC.md), shared by
// the battery itself and the invariant oracle's differential test.
#pragma once

#include <cstdint>

#include "core/load_driver.hpp"
#include "core/platform.hpp"

namespace rattrap::core {

struct BatteryCase {
  PlatformConfig platform;
  LoadDriverConfig driver;
};

/// Derives a deterministic but varied attack scenario from a seed:
/// arrival process, RAC shape and adversary mix all rotate.
inline BatteryCase make_case(std::uint64_t seed) {
  BatteryCase c;
  c.platform = make_config(PlatformKind::kRattrap);
  c.platform.seed = seed;
  c.platform.force_invariants = true;
  c.platform.admission.enabled = true;
  c.platform.admission.max_in_service =
      2 + static_cast<std::uint32_t>(seed % 4);
  c.platform.admission.queue_capacity =
      4 + static_cast<std::uint32_t>(seed % 8);
  if (seed % 2 == 1) c.platform.admission.qos.enabled = true;

  // The RAC sweep: threshold 2..5; a third of the seeds block
  // permanently, the rest run a 1..5 s penalty window; half arm the
  // in-flight quota; a quarter arm the admission queue quota.
  c.platform.access.violation_threshold =
      2 + static_cast<std::uint32_t>(seed % 4);
  c.platform.access.block_duration =
      (seed % 3 == 0) ? 0 : sim::from_seconds(1.0 + static_cast<double>(seed % 5));
  if (seed % 2 == 0) {
    c.platform.access.tenant_quota = 2 + static_cast<std::uint32_t>(seed % 6);
  }
  if (seed % 4 == 1) {
    c.platform.admission.tenant_queue_quota =
        2 + static_cast<std::uint32_t>(seed % 4);
  }

  c.driver.loadgen.seed = seed;
  c.driver.loadgen.arrival = static_cast<sim::ArrivalProcess>(seed % 3);
  c.driver.loadgen.devices = 4 + static_cast<std::uint32_t>(seed % 8);
  c.driver.loadgen.requests = 30 + seed % 40;
  c.driver.loadgen.rate_per_s = 5.0 + static_cast<double>(seed % 40);
  c.driver.loadgen.think_time_s = 0.2 + 0.1 * static_cast<double>(seed % 5);
  c.driver.kind = static_cast<workloads::Kind>(seed % 4);
  c.driver.size_class = 1;
  c.driver.task_variants = 4;

  // One honest victim plus one or two adversaries; the adversary
  // profile, priority class and offered share rotate with the seed.
  const auto profile = [](std::uint64_t n) {
    return static_cast<sim::AdversaryProfile>(1 + n % 4);
  };
  c.driver.loadgen.mix = {
      {"victim", 0, 2, 1.0, sim::AdversaryProfile::kNone},
      {"attacker", static_cast<std::uint8_t>(seed % 3), 1,
       1.0 + static_cast<double>(seed % 2), profile(seed)},
  };
  if (seed % 3 == 0) {
    c.driver.loadgen.mix.push_back({"attacker2",
                                    static_cast<std::uint8_t>((seed / 3) % 3),
                                    1, 1.0, profile(seed / 4 + 1)});
  }
  return c;
}

}  // namespace rattrap::core
