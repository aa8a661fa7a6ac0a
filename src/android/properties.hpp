// Android property service model.
//
// init and the framework communicate through the property store
// (ro.build.*, sys.boot_completed, persist.*).  Each Cloud Android
// Container owns an isolated store; `ro.` properties are write-once, and
// watchers fire on change — the mechanism init's `on property:` triggers
// build on.  The customized OS also uses properties to advertise faked
// services (§IV-B3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rattrap::android {

class PropertyStore {
 public:
  PropertyStore() = default;
  /// An empty store over a shared read-only `base` — the build
  /// properties every container of one OS image boots with.  Reads fall
  /// through to the base; sets land here and shadow it (`ro.` entries of
  /// the base stay write-once).
  explicit PropertyStore(std::shared_ptr<const PropertyStore> base)
      : base_(std::move(base)) {}

  /// Sets a property. Returns false when rewriting a read-only (`ro.`)
  /// property with a different value, as the real property service does.
  bool set(std::string_view name, std::string value);

  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;

  /// Value or `fallback` when unset.
  [[nodiscard]] std::string get_or(std::string_view name,
                                   std::string fallback) const;

  /// Registers a watcher on `name`; fires on every successful set (after
  /// the store is updated). Watchers on `*` fire for every property.
  void watch(std::string name,
             std::function<void(const std::string& name,
                                const std::string& value)>
                 callback);

  [[nodiscard]] std::size_t size() const;

  /// Properties under a prefix (e.g. "ro.product."), sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> by_prefix(
      std::string_view prefix) const;

 private:
  /// The value of `name`, here or in the base; nullptr when unset.
  [[nodiscard]] const std::string* find(std::string_view name) const;

  std::shared_ptr<const PropertyStore> base_;
  std::map<std::string, std::string, std::less<>> values_;
  std::multimap<std::string,
                std::function<void(const std::string&, const std::string&)>>
      watchers_;
};

/// Populates a store the way init + build.prop do on a Cloud Android
/// Container (ro.build.*, ro.hardware=cac, the faked-service markers).
void populate_cac_properties(PropertyStore& store,
                             const std::string& container_name,
                             bool customized_os);

/// Everything populate_cac_properties() sets except the per-container
/// ro.serialno: the part every container of one OS image shares.
void populate_build_properties(PropertyStore& store, bool customized_os);

}  // namespace rattrap::android
