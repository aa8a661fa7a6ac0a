// MetricsRegistry: counters, gauges and fixed-bucket histograms.
//
// The observability contract of docs/OBSERVABILITY.md: every number the
// paper argues with (affinity hit rates, provision-vs-reuse latency,
// tmpfs bytes shared) is a named metric in one registry, exportable as
// deterministic JSON.  Instruments are designed for hot paths —
// incrementing a counter is one integer add, observing a histogram
// sample is one binary search over a handful of bucket bounds — so the
// engine can stay instrumented even in benchmark builds.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime (instruments are heap-allocated and never moved),
// so components cache the reference once and skip the name lookup on
// every update.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rattrap::obs {

/// Version of the exported metrics document.  Bump whenever a metric is
/// renamed, removed, or changes meaning — golden-determinism fingerprints
/// embed it, so a rename fails tests loudly instead of silently matching
/// a stale baseline.  History: 1 = pre-QoS; 2 = qos.* metrics + schema
/// field in to_json(); 3 = elastic.* lifecycle/pool metrics and
/// monitor.active_envs (docs/ELASTIC.md); 4 = rac.* defense-layer
/// metrics (violations, blocks, unblocks, denied-by-reason; docs/RAC.md);
/// 5 = rpc.* front-door metrics (connections, frames, bytes, decode
/// errors, watermark pauses, pending-acquire accounting; docs/RPC.md) —
/// recorded in the rpc::Server / ConnectionManager registry, never in a
/// Platform's, so sim-clock fingerprints stay transport-comparable.
inline constexpr int kMetricsSchemaVersion = 5;

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time value: the last set() wins.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges in
/// ascending order; an implicit overflow bucket [bounds.back(), +inf)
/// catches the rest.  Values are assumed non-negative (latencies, byte
/// counts); the first bucket spans [0, bounds[0]].
///
/// quantile(q) interpolates linearly inside the bucket where the
/// cumulative count crosses q * count, then clamps to the exact
/// observed [min, max] — so p50/p95/p99 are deterministic functions of
/// the bucket layout and the sample multiset.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Number of buckets including the overflow bucket.
  [[nodiscard]] std::size_t buckets() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_.at(i);
  }
  /// Upper edge of bucket `i`; +inf for the overflow bucket.
  [[nodiscard]] double bucket_bound(std::size_t i) const;

  /// q in [0, 1]; 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;        ///< ascending upper edges
  std::vector<std::uint64_t> counts_; ///< bounds_.size() + 1 buckets
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Canonical fixed bucket layouts, so the same quantity uses the same
/// resolution everywhere (docs/OBSERVABILITY.md documents both).
[[nodiscard]] const std::vector<double>& latency_ms_buckets();
[[nodiscard]] const std::vector<double>& bytes_buckets();
/// Queue occupancy (admission.queue.depth_samples and friends).
[[nodiscard]] const std::vector<double>& queue_depth_buckets();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; references stay valid for the registry lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies on first creation only (and is copied only then).
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds);
  Histogram& histogram(std::string_view name) {
    return histogram(name, latency_ms_buckets());
  }

  /// The instrument in `slot`, found or created as prefix + suffix on
  /// first use: a hot path keeps the handle and pays no name lookup.
  template <typename Instrument>
  Instrument& resolve(Instrument*& slot, std::string_view prefix,
                      std::string_view suffix = {}) {
    if (slot != nullptr) return *slot;
    std::string name(prefix);
    name += suffix;
    if constexpr (std::is_same_v<Instrument, Counter>) {
      return *(slot = &counter(name));
    } else if constexpr (std::is_same_v<Instrument, Gauge>) {
      return *(slot = &gauge(name));
    } else {
      return *(slot = &histogram(name));
    }
  }

  /// Read-only lookups; nullptr when the instrument does not exist.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Deterministic JSON document:
  ///   {"schema":2,"counters":{...},"gauges":{...},"histograms":{name:
  ///    {"count":..,"sum":..,"min":..,"max":..,"mean":..,
  ///     "p50":..,"p95":..,"p99":..,"buckets":[{"le":..,"n":..},...]}}}
  /// Keys sort lexicographically; identical runs produce identical bytes.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace rattrap::obs
