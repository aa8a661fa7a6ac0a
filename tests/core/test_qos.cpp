// QoS subsystem unit tests: weighted DRR fairness, priority classes with
// bounded anti-starvation promotion, and the FIFO-degradation contract
// (docs/QOS.md).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/qos/drr.hpp"
#include "core/qos/qos.hpp"
#include "core/qos/scheduler.hpp"

namespace rattrap::core::qos {
namespace {

TEST(PriorityClassNames, RoundTrip) {
  for (const PriorityClass klass : kAllClasses) {
    const auto parsed = parse_class(to_string(klass));
    ASSERT_TRUE(parsed.has_value()) << to_string(klass);
    EXPECT_EQ(*parsed, klass);
  }
  EXPECT_FALSE(parse_class("turbo").has_value());
}

// -- DRR ----------------------------------------------------------------

TEST(Drr, SingleTenantIsFifo) {
  DrrScheduler drr;
  for (std::uint64_t id = 0; id < 5; ++id) drr.push("t", id, 0);
  for (std::uint64_t id = 0; id < 5; ++id) {
    const auto served = drr.pop();
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->id, id);
  }
  EXPECT_FALSE(drr.pop().has_value());
}

TEST(Drr, WeightsHoldWithinOneQuantumOverLongRuns) {
  // Both tenants permanently backlogged; weight 3 vs 1 must serve within
  // one deficit quantum of the 3:1 ratio at every prefix of the run.
  DrrScheduler drr(/*quantum=*/1);
  drr.set_weight("gold", 3);
  drr.set_weight("bronze", 1);
  for (std::uint64_t id = 0; id < 4000; ++id) {
    drr.push("gold", id, 0);
    drr.push("bronze", 100000 + id, 0);
  }
  std::map<std::string, std::uint64_t> served;
  for (int i = 0; i < 4000; ++i) {
    const auto item = drr.pop();
    ASSERT_TRUE(item.has_value());
    ++served[item->tenant];
    // Per-round service matches weight: gold never lags 3x bronze by
    // more than one quantum x weight in either direction.
    const double gold = static_cast<double>(served["gold"]);
    const double bronze = static_cast<double>(served["bronze"]);
    EXPECT_LE(std::abs(gold - 3.0 * bronze), 4.0)
        << "after " << i + 1 << " pops";
  }
  EXPECT_EQ(served["gold"], 3000u);
  EXPECT_EQ(served["bronze"], 1000u);
  EXPECT_FALSE(drr.check_conservation().has_value());
}

TEST(Drr, IdleTenantForfeitsDeficitNotService) {
  DrrScheduler drr(/*quantum=*/2);
  drr.push("a", 1, 0);
  ASSERT_TRUE(drr.pop().has_value());
  // a went idle with unspent deficit; conservation still balances.
  EXPECT_FALSE(drr.check_conservation().has_value());
  // A returning tenant starts from a fresh deficit (no banked credit).
  drr.push("b", 2, 0);
  drr.push("a", 3, 0);
  const auto first = drr.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tenant, "b");  // ring order is activation order
  EXPECT_FALSE(drr.check_conservation().has_value());
}

TEST(Drr, RemoveKeepsLedgerBalanced) {
  DrrScheduler drr;
  drr.push("t", 1, 0);
  drr.push("t", 2, 0);
  drr.push("u", 3, 0);
  EXPECT_TRUE(drr.remove("t", 2));
  EXPECT_FALSE(drr.remove("t", 2));
  EXPECT_FALSE(drr.remove("ghost", 9));
  EXPECT_EQ(drr.size(), 2u);
  ASSERT_TRUE(drr.pop().has_value());
  ASSERT_TRUE(drr.pop().has_value());
  EXPECT_FALSE(drr.check_conservation().has_value());
}

// -- QosScheduler -------------------------------------------------------

QosConfig enabled_config(std::uint32_t promote_every = 8,
                         std::uint32_t burst = 1) {
  QosConfig config;
  config.enabled = true;
  config.promote_every = promote_every;
  config.starvation_burst = burst;
  return config;
}

TEST(QosScheduler, StrictPriorityAcrossClasses) {
  QosScheduler scheduler(enabled_config(/*promote_every=*/1000), 64);
  ASSERT_TRUE(scheduler.push(PriorityClass::kBatch, "t", 1, 0).ok());
  ASSERT_TRUE(scheduler.push(PriorityClass::kStandard, "t", 2, 0).ok());
  ASSERT_TRUE(scheduler.push(PriorityClass::kInteractive, "t", 3, 0).ok());
  EXPECT_EQ(scheduler.pop(0)->id, 3u);
  EXPECT_EQ(scheduler.pop(0)->id, 2u);
  EXPECT_EQ(scheduler.pop(0)->id, 1u);
}

TEST(QosScheduler, PromotionBoundsLowerClassRuns) {
  // promote_every=4, burst=2: while both lanes stay backlogged, batch
  // gets exactly 2 pops after every 4 interactive pops, never more.
  QosScheduler scheduler(enabled_config(/*promote_every=*/4, /*burst=*/2),
                         1000);
  for (std::uint64_t id = 0; id < 400; ++id) {
    ASSERT_TRUE(
        scheduler.push(PriorityClass::kInteractive, "i", id, 0).ok());
    ASSERT_TRUE(
        scheduler.push(PriorityClass::kBatch, "b", 1000 + id, 0).ok());
  }
  std::size_t batch_served = 0;
  for (int i = 0; i < 400; ++i) {
    const auto popped = scheduler.pop(0);
    ASSERT_TRUE(popped.has_value());
    if (popped->klass == PriorityClass::kBatch) ++batch_served;
  }
  // 4 interactive + 2 batch per cycle of 6 -> about a third are batch.
  EXPECT_GT(batch_served, 0u);
  EXPECT_LE(scheduler.max_lower_run(), 2u);
  EXPECT_GT(scheduler.promotions(), 0u);
}

TEST(QosScheduler, NoPromotionWhenHigherLanesAreIdle) {
  QosScheduler scheduler(enabled_config(/*promote_every=*/1), 64);
  for (std::uint64_t id = 0; id < 10; ++id) {
    ASSERT_TRUE(scheduler.push(PriorityClass::kBatch, "b", id, 0).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(scheduler.pop(0).has_value());
  }
  // Batch served alone is not a starvation burst.
  EXPECT_EQ(scheduler.promotions(), 0u);
  EXPECT_EQ(scheduler.max_lower_run(), 0u);
}

TEST(QosScheduler, PerClassCapacityShedsIndependently) {
  QosConfig config = enabled_config();
  config.interactive.queue_capacity = 1;
  QosScheduler scheduler(config, 4);
  ASSERT_TRUE(scheduler.push(PriorityClass::kInteractive, "t", 1, 0).ok());
  const Result<std::uint32_t> full =
      scheduler.push(PriorityClass::kInteractive, "t", 2, 0);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error(), RejectReason::kQueueFull);
  // The batch lane inherits the fallback capacity and still has room.
  EXPECT_TRUE(scheduler.push(PriorityClass::kBatch, "t", 3, 0).ok());
  EXPECT_EQ(scheduler.capacity(PriorityClass::kInteractive), 1u);
  EXPECT_EQ(scheduler.capacity(PriorityClass::kBatch), 4u);
}

TEST(QosScheduler, DisabledDegradesToSingleFifo) {
  // QoS off: class and tenant are ignored; pops come back in exact
  // arrival order through the standard lane, bounded by fifo_capacity.
  QosConfig config;  // enabled = false
  config.starvation_burst = 5;
  QosScheduler scheduler(config, 3);
  ASSERT_TRUE(scheduler.push(PriorityClass::kBatch, "a", 1, 0).ok());
  ASSERT_TRUE(scheduler.push(PriorityClass::kInteractive, "b", 2, 0).ok());
  ASSERT_TRUE(scheduler.push(PriorityClass::kStandard, "c", 3, 0).ok());
  EXPECT_FALSE(scheduler.push(PriorityClass::kInteractive, "d", 4, 0).ok());
  EXPECT_EQ(scheduler.depth(PriorityClass::kStandard), 3u);
  EXPECT_EQ(scheduler.pop(0)->id, 1u);
  EXPECT_EQ(scheduler.pop(0)->id, 2u);
  EXPECT_EQ(scheduler.pop(0)->id, 3u);
  EXPECT_EQ(scheduler.promotions(), 0u);
}

TEST(QosScheduler, ConservationHoldsAcrossMixedOperations) {
  QosScheduler scheduler(enabled_config(), 64);
  scheduler.set_tenant_weight("gold", 3);
  for (std::uint64_t id = 0; id < 30; ++id) {
    const auto klass = kAllClasses[id % kClassCount];
    const std::string tenant = (id % 2 != 0) ? "gold" : "bronze";
    ASSERT_TRUE(scheduler.push(klass, tenant, id, 0).ok());
  }
  ASSERT_TRUE(scheduler.remove(PriorityClass::kInteractive, "bronze", 0));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(scheduler.pop(0).has_value());
    EXPECT_FALSE(scheduler.check_conservation().has_value());
  }
}

}  // namespace
}  // namespace rattrap::core::qos
