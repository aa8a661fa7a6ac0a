// Statistics collection: accumulators, histograms, empirical CDFs and
// bucketed time series (for the Fig. 2 server-load timelines).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rattrap::sim {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< Sample variance (n-1 divisor).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator (parallel-reduction friendly).
  void merge(const Accumulator& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return bins_.at(i); }
  [[nodiscard]] std::size_t bins() const { return bins_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> bins_;
  std::size_t total_ = 0;
};

/// Empirical CDF built from retained samples.
class Cdf {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  /// P(X <= x). Returns 0 for an empty CDF.
  [[nodiscard]] double fraction_at_or_below(double x) const;

  /// P(X > x).
  [[nodiscard]] double fraction_above(double x) const {
    return count() ? 1.0 - fraction_at_or_below(x) : 0.0;
  }

  /// q-quantile for q in [0, 1] (nearest-rank). Requires count() > 0.
  [[nodiscard]] double quantile(double q) const;

  /// Sorted copy of the samples (for plotting CDF curves).
  [[nodiscard]] std::vector<double> sorted() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-granularity time series: accumulates a value (e.g. CPU-busy µs or
/// bytes of disk I/O) into buckets of `granularity` simulated time.  Used to
/// reproduce the 1-second CPU/IO utilization timelines of Fig. 2.
class TimeSeries {
 public:
  explicit TimeSeries(SimDuration granularity = kSecond);

  /// Adds `value` attributed to instant `t`.
  void add(SimTime t, double value);

  /// Adds `value` spread uniformly over [t0, t1).
  void add_interval(SimTime t0, SimTime t1, double value);

  [[nodiscard]] SimDuration granularity() const { return granularity_; }
  [[nodiscard]] std::size_t buckets() const { return buckets_.size(); }
  [[nodiscard]] double bucket(std::size_t i) const {
    return i < buckets_.size() ? buckets_[i] : 0.0;
  }

 private:
  SimDuration granularity_;
  std::vector<double> buckets_;
};

}  // namespace rattrap::sim
