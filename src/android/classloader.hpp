// ClassLoader model: loading offloaded mobile code into a runtime.
//
// §III-C observes the I/O burst after boot from "receiving mobile codes
// and loading them into runtime by ClassLoader".  Loading an APK costs
// dex verification/optimization proportional to code size; an app already
// loaded in the same runtime environment relinks almost for free, which
// is what the Dispatcher's container-affinity (AID → CID) exploits.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace rattrap::android {

class ClassLoader {
 public:
  /// Loads an app's code; returns the simulated cost.  The first load of
  /// an app pays verification + dexopt; repeat loads only relink.
  sim::SimDuration load(std::string_view app_id, std::uint64_t apk_bytes);

  [[nodiscard]] bool loaded(std::string_view app_id) const {
    return loaded_.contains(app_id);
  }
  [[nodiscard]] std::size_t loaded_count() const { return loaded_.size(); }

  /// Per-load cost model pieces (exposed for tests and the calibration
  /// bench): dex verify+opt throughput and fixed overhead.
  [[nodiscard]] static sim::SimDuration first_load_cost(
      std::uint64_t apk_bytes);
  [[nodiscard]] static sim::SimDuration relink_cost();

 private:
  std::set<std::string, std::less<>> loaded_;
};

}  // namespace rattrap::android
