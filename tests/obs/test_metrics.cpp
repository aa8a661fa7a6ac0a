// MetricsRegistry: instrument semantics, exact quantile fixtures and
// deterministic JSON export.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rattrap::obs {
namespace {

TEST(Counter, AccumulatesMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetWinsAddAccumulates) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(Histogram, BucketAssignmentUsesInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // [0, 1]
  h.observe(1.0);   // still the first bucket (inclusive edge)
  h.observe(1.5);   // (1, 2]
  h.observe(3.0);   // (2, 4]
  h.observe(10.0);  // overflow
  ASSERT_EQ(h.buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 1.0);
  EXPECT_TRUE(std::isinf(h.bucket_bound(3)));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.2);
}

TEST(Histogram, QuantileExactFixture) {
  // Buckets [0,10] (1 sample: 5), (10,20] (2 samples: 15,15),
  // (20,40] (1 sample: 35).
  Histogram h({10.0, 20.0, 40.0});
  h.observe(5.0);
  h.observe(15.0);
  h.observe(15.0);
  h.observe(35.0);
  // p50: target 2.0 lands in bucket (10,20] with cum=1 before it:
  // 10 + (2-1)/2 * 10 = 15.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 15.0);
  // p25: target 1.0 exhausts the first bucket exactly: upper edge 10.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 10.0);
  // p100 interpolates to the bucket edge 40, then clamps to max=35.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 35.0);
  // p0 interpolates to the bucket floor 0, then clamps to min=5.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
}

TEST(Histogram, OverflowBucketReportsObservedMax) {
  Histogram h({10.0});
  h.observe(5.0);
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  // One sample: every quantile is that sample.
  Histogram h(latency_ms_buckets());
  h.observe(3.7);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.7);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.7);
}

TEST(MetricsRegistry, HandlesAreStableAcrossGrowth) {
  MetricsRegistry r;
  Counter& c = r.counter("first");
  for (int i = 0; i < 100; ++i) {
    r.counter("other." + std::to_string(i));
  }
  c.inc(7);
  ASSERT_NE(r.find_counter("first"), nullptr);
  EXPECT_EQ(r.find_counter("first")->value(), 7u);
  EXPECT_EQ(&r.counter("first"), &c);
}

TEST(MetricsRegistry, FindReturnsNullForUnknownNames) {
  MetricsRegistry r;
  r.counter("a");
  EXPECT_EQ(r.find_counter("b"), nullptr);
  EXPECT_EQ(r.find_gauge("a"), nullptr);  // wrong instrument type
  EXPECT_EQ(r.find_histogram("a"), nullptr);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MetricsRegistry, HistogramBoundsApplyOnFirstCreationOnly) {
  MetricsRegistry r;
  Histogram& h = r.histogram("lat", {1.0, 2.0});
  EXPECT_EQ(h.buckets(), 3u);
  // Second call with different bounds returns the existing instrument.
  Histogram& again = r.histogram("lat", {5.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.buckets(), 3u);
}

TEST(MetricsRegistry, JsonIsDeterministicAndSorted) {
  const auto build = [](MetricsRegistry& r) {
    r.counter("z.last").inc(3);
    r.counter("a.first").inc(1);
    r.gauge("mid").set(0.25);
    Histogram& h = r.histogram("lat", {10.0, 20.0, 40.0});
    h.observe(5.0);
    h.observe(15.0);
    h.observe(15.0);
    h.observe(35.0);
  };
  MetricsRegistry r1, r2;
  build(r1);
  build(r2);
  const std::string json = r1.to_json();
  EXPECT_EQ(json, r2.to_json());
  // Lexicographic key order regardless of creation order.
  EXPECT_LT(json.find("\"a.first\":1"), json.find("\"z.last\":3"));
  EXPECT_NE(json.find("\"mid\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":15"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
}

}  // namespace
}  // namespace rattrap::obs
