#include "manifest.hpp"

#include <algorithm>
#include <cstdio>

#include "../cli_util.hpp"

namespace rattrap::experiments {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool is_meta_key(std::string_view key) {
  return key.rfind("expect.", 0) == 0 || key.rfind("full.", 0) == 0;
}

}  // namespace

bool is_sweep_key(std::string_view key) {
  return key == "scenario" || key == "quick";
}

const std::vector<std::string>* Experiment::find(std::string_view key) const {
  for (const auto& [k, values] : keys) {
    if (k == key) return &values;
  }
  return nullptr;
}

bool Experiment::flag(std::string_view key, bool fallback) const {
  const std::vector<std::string>* values = find(key);
  if (values == nullptr || values->empty()) return fallback;
  const std::string& v = values->front();
  return v == "true" || v == "on" || v == "1" || v == "yes";
}

const Experiment* Manifest::find(std::string_view name) const {
  for (const Experiment& experiment : experiments) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

std::optional<Manifest> parse_manifest(std::string_view text,
                                       std::string& error) {
  Manifest manifest;
  Experiment* current = nullptr;
  std::size_t line_no = 0;
  std::size_t start = 0;
  const auto fail = [&](const std::string& what) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "line %zu: ", line_no);
    error = buf + what;
    return std::nullopt;
  };
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i != text.size() && text[i] != '\n') continue;
    ++line_no;
    std::string_view line = trim(text.substr(start, i - start));
    start = i + 1;
    if (line.empty() || line.front() == '#') continue;
    if (line.front() == '[') {
      if (line.back() != ']') return fail("unterminated section header");
      const std::string name{trim(line.substr(1, line.size() - 2))};
      if (name.empty()) return fail("empty experiment name");
      if (manifest.find(name) != nullptr) {
        return fail("duplicate experiment [" + name + "]");
      }
      manifest.experiments.push_back(Experiment{name, {}});
      current = &manifest.experiments.back();
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return fail("expected 'key = value' or '[section]'");
    }
    if (current == nullptr) return fail("key before any [experiment]");
    const std::string key{trim(line.substr(0, eq))};
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) return fail("empty key");
    if (current->find(key) != nullptr) {
      return fail("duplicate key '" + key + "' in [" + current->name + "]");
    }
    // '|' separates grid-axis values; an empty element is an error.
    std::vector<std::string> values;
    for (const std::string& v : cli::split(value, '|')) {
      values.emplace_back(trim(v));
      if (values.back().empty()) {
        return fail("empty grid element in '" + key + "'");
      }
    }
    if (is_meta_key(key) && values.size() > 1) {
      return fail("'" + key + "' cannot be a grid axis");
    }
    current->keys.emplace_back(key, std::move(values));
  }
  if (manifest.experiments.empty()) {
    error = "manifest declares no experiments";
    return std::nullopt;
  }
  return manifest;
}

std::size_t grid_size(const Experiment& experiment, std::string& error) {
  std::size_t size = 1;
  for (const auto& [key, values] : experiment.keys) {
    if (is_meta_key(key)) continue;
    if (values.empty()) {
      error = "key '" + key + "' has no value";
      return 0;
    }
    size *= values.size();
  }
  return size;
}

std::optional<RunSpec> resolve_point(const Experiment& experiment,
                                     std::size_t point, bool quick,
                                     std::string& error) {
  const std::size_t total = grid_size(experiment, error);
  if (total == 0) return std::nullopt;
  if (point >= total) {
    error = "point out of range";
    return std::nullopt;
  }
  RunSpec spec;
  spec.experiment = experiment.name;
  spec.point = point;

  // Odometer decode, last declared axis fastest: walk the axes in
  // reverse, peeling each one's index off `point`.
  std::map<std::string, std::size_t> axis_index;
  std::size_t rest = point;
  for (auto it = experiment.keys.rbegin(); it != experiment.keys.rend();
       ++it) {
    if (is_meta_key(it->first) || it->second.size() <= 1) continue;
    axis_index[it->first] = rest % it->second.size();
    rest /= it->second.size();
  }

  std::vector<std::pair<std::string, std::string>> full_overrides;
  std::string label;
  for (const auto& [key, values] : experiment.keys) {
    if (key.rfind("expect.", 0) == 0) {
      spec.expect[key.substr(7)] = values.front();
      continue;
    }
    if (key.rfind("full.", 0) == 0) {
      full_overrides.emplace_back(key.substr(5), values.front());
      continue;
    }
    const auto axis = axis_index.find(key);
    const std::string& value =
        axis == axis_index.end() ? values.front() : values[axis->second];
    spec.params[key] = value;
    if (axis != axis_index.end()) {
      if (!label.empty()) label += ',';
      label += key + '=' + value;
    }
  }
  if (!quick) {
    for (auto& [key, value] : full_overrides) spec.params[key] = value;
  }
  spec.label = label.empty() ? "base" : label;
  return spec;
}

std::string sanitize_label(std::string_view label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_' || c == '=' || c == ',';
    out.push_back(safe ? c : '_');
  }
  return out;
}

}  // namespace rattrap::experiments
