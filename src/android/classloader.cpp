#include "android/classloader.hpp"

namespace rattrap::android {

sim::SimDuration ClassLoader::first_load_cost(std::uint64_t apk_bytes) {
  // dexopt + verification streams the dex at ~18 MB/s on the server class
  // hardware, plus a fixed ~90 ms of loader overhead.
  const double seconds =
      static_cast<double>(apk_bytes) / (18.0 * 1024 * 1024);
  return sim::from_seconds(seconds) + sim::from_millis(90);
}

sim::SimDuration ClassLoader::relink_cost() { return sim::from_millis(14); }

sim::SimDuration ClassLoader::load(std::string_view app_id,
                                   std::uint64_t apk_bytes) {
  // Look before inserting: emplace would build (and free) a node on
  // every repeat load.
  if (loaded_.contains(app_id)) return relink_cost();
  loaded_.emplace(app_id);
  return first_load_cost(apk_bytes);
}

}  // namespace rattrap::android
