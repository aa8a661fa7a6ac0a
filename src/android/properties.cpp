#include "android/properties.hpp"

namespace rattrap::android {

const std::string* PropertyStore::find(std::string_view name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return &it->second;
  return base_ != nullptr ? base_->find(name) : nullptr;
}

bool PropertyStore::set(std::string_view name, std::string value) {
  const std::string* current = find(name);
  if (current != nullptr && name.rfind("ro.", 0) == 0 && *current != value) {
    return false;  // read-only property already holds a different value
  }
  const auto it = values_.find(name);
  std::string key(name);
  if (it != values_.end()) {
    it->second = value;
  } else {
    values_.emplace(key, value);
  }
  // Exact-name watchers, then wildcard watchers.
  const auto fire = [&](const std::string& pattern) {
    const auto [begin, end] = watchers_.equal_range(pattern);
    for (auto watcher = begin; watcher != end; ++watcher) {
      watcher->second(key, value);
    }
  };
  fire(key);
  fire("*");
  return true;
}

std::optional<std::string> PropertyStore::get(std::string_view name) const {
  const std::string* value = find(name);
  if (value == nullptr) return std::nullopt;
  return *value;
}

std::size_t PropertyStore::size() const {
  if (base_ == nullptr) return values_.size();
  std::size_t n = base_->size();
  for (const auto& [name, value] : values_) {
    (void)value;
    if (base_->find(name) == nullptr) ++n;
  }
  return n;
}

std::string PropertyStore::get_or(std::string_view name,
                                  std::string fallback) const {
  const auto value = get(name);
  return value ? *value : std::move(fallback);
}

void PropertyStore::watch(
    std::string name,
    std::function<void(const std::string&, const std::string&)> callback) {
  watchers_.emplace(std::move(name), std::move(callback));
}

std::vector<std::pair<std::string, std::string>> PropertyStore::by_prefix(
    std::string_view prefix) const {
  std::map<std::string, std::string, std::less<>> merged;
  if (base_ != nullptr) {
    for (auto& [name, value] : base_->by_prefix(prefix)) {
      merged.emplace(std::move(name), std::move(value));
    }
  }
  for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    merged.insert_or_assign(it->first, it->second);
  }
  return {merged.begin(), merged.end()};
}

void populate_cac_properties(PropertyStore& store,
                             const std::string& container_name,
                             bool customized_os) {
  populate_build_properties(store, customized_os);
  store.set("ro.serialno", container_name);
}

void populate_build_properties(PropertyStore& store, bool customized_os) {
  store.set("ro.build.version.release", "4.4.2");
  store.set("ro.build.version.sdk", "19");
  store.set("ro.product.device", "cac");
  store.set("ro.hardware", "cloud-container");
  store.set("ro.rattrap.customized", customized_os ? "1" : "0");
  if (customized_os) {
    // Markers the stub services publish so framework code that probes for
    // capabilities takes the direct-return path instead of crashing.
    store.set("ro.rattrap.stub.surfaceflinger", "1");
    store.set("ro.rattrap.stub.telephony", "1");
    store.set("ro.config.headless", "1");
  }
  store.set("sys.boot_completed", "1");
}

}  // namespace rattrap::android
