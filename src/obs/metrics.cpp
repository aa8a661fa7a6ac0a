#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/json.hpp"

namespace rattrap::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double Histogram::bucket_bound(std::size_t i) const {
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double n = static_cast<double>(counts_[i]);
    if (n == 0.0) continue;
    if (cum + n >= target) {
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      // Overflow bucket has no finite width: report the observed max.
      if (i == bounds_.size()) return max_;
      const double hi = bounds_[i];
      const double frac = n > 0.0 ? (target - cum) / n : 0.0;
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    cum += n;
  }
  return max_;
}

const std::vector<double>& latency_ms_buckets() {
  // Sub-millisecond through the multi-minute tail a cold VM boot hits;
  // roughly 2x spacing keeps interpolation error under a factor of two.
  static const std::vector<double> buckets = {
      0.1,  0.25,  0.5,   1,     2.5,   5,     10,    25,    50,   100,
      250,  500,   1000,  2500,  5000,  10000, 25000, 50000, 100000,
      250000};
  return buckets;
}

const std::vector<double>& bytes_buckets() {
  // 64 B .. 4 GB, powers of four.
  static const std::vector<double> buckets = {
      64,        256,        1024,        4096,        16384,
      65536,     262144,     1048576,     4194304,     16777216,
      67108864,  268435456,  1073741824,  4294967296.0};
  return buckets;
}

const std::vector<double>& queue_depth_buckets() {
  // 1 .. 64k waiting sessions, powers of two; depth is integral so the
  // inclusive upper edges make every bucket exact.
  static const std::vector<double> buckets = {
      1,   2,    4,    8,    16,   32,    64,    128,  256,
      512, 1024, 2048, 4096, 8192, 16384, 32768, 65536};
  return buckets;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"schema\":";
  out += json_number(static_cast<std::int64_t>(kMetricsSchemaVersion));
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    out += json_quote(name) + ":" + json_number(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    out += json_quote(name) + ":" + json_number(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    out += json_quote(name) + ":{";
    out += "\"count\":" + json_number(h->count());
    out += ",\"sum\":" + json_number(h->sum());
    out += ",\"min\":" + json_number(h->min());
    out += ",\"max\":" + json_number(h->max());
    out += ",\"mean\":" + json_number(h->mean());
    out += ",\"p50\":" + json_number(h->quantile(0.50));
    out += ",\"p95\":" + json_number(h->quantile(0.95));
    out += ",\"p99\":" + json_number(h->quantile(0.99));
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < h->buckets(); ++i) {
      if (i > 0) out.push_back(',');
      const double le = h->bucket_bound(i);
      out += "{\"le\":" +
             (std::isfinite(le) ? json_number(le)
                                : std::string("\"inf\"")) +
             ",\"n\":" + json_number(h->bucket_count(i)) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace rattrap::obs
