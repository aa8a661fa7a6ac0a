// Property battery for the RAC defense layer (docs/RAC.md).
//
// 200 randomized seeds sweep arrival process, fleet shape, RAC
// configuration (violation threshold, penalty window, in-flight quota,
// admission queue quota) and adversary mixes (permission probing, class
// flooding, cache thrashing, noisy neighbours) against a platform with
// the full invariant harness armed after every simulator event.  Each
// run must satisfy:
//
//   * zero invariant violations — including #14, rac-blocked-isolation:
//     a blocked tenant consumes zero container time after block onset;
//   * the per-tenant accounting identity — every tenant's offered
//     requests are conserved across terminal states, and the tenant
//     ledgers sum back to the session totals;
//   * the RAC ledger laws — blocking is monotone in violations (every
//     block requires `violation_threshold` fresh violations, so
//     rac.violations >= rac.blocks x threshold), unblocks never exceed
//     blocks, and quota denials only fire when a quota is armed.
//
// Two deterministic companions pin the lifecycle ends the battery can
// only observe statistically: blocking is monotone in the configured
// threshold, and an expired penalty window restores service.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "rac_battery_case.hpp"
#include "sim/parallel.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

TEST(RacBattery, RandomizedAttackSeedsHoldEveryInvariant) {
  constexpr std::uint64_t kSeeds = 200;
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  std::atomic<std::uint64_t> checks_total{0};
  std::atomic<std::uint64_t> blocks_total{0};
  std::atomic<std::uint64_t> unblocks_total{0};
  std::atomic<std::uint64_t> quota_denies_total{0};

  sim::parallel_for(kSeeds, [&](std::size_t index) {
    const std::uint64_t seed = static_cast<std::uint64_t>(index) + 1;
    const BatteryCase c = make_case(seed);
    Platform platform(c.platform);
    const std::size_t offered = c.driver.loadgen.requests;
    const LoadSummary summary = run_load(platform, c.driver);

    const auto fail = [&](const std::string& why) {
      const std::lock_guard<std::mutex> lock(failures_mutex);
      failures.push_back("seed " + std::to_string(seed) + ": " + why);
    };

    // Invariant harness armed and silent — #14 (rac-blocked-isolation)
    // ran after every event of every one of these attack runs.
    if (platform.invariants().invariant_count() == 0) {
      fail("invariant harness was not armed");
      return;
    }
    checks_total += platform.invariants().checks_run();
    if (!platform.invariants().ok()) {
      fail("invariant violation: " +
           platform.invariants().first_violation()->name + " — " +
           platform.invariants().first_violation()->detail);
      return;
    }

    // Per-tenant accounting identity: every tenant's offers are
    // conserved, and the tenant ledgers sum back to the run totals.
    if (summary.offered != offered) {
      fail("offered mismatch: " + std::to_string(summary.offered) +
           " != " + std::to_string(offered));
      return;
    }
    std::size_t tenant_offered = 0;
    std::size_t tenant_completed = 0;
    std::size_t tenant_rejected = 0;
    for (const auto& [name, stats] : summary.by_tenant) {
      if (stats.offered != stats.completed + stats.rejected) {
        fail("tenant " + name + " identity broken: " +
             std::to_string(stats.completed) + "+" +
             std::to_string(stats.rejected) +
             " != " + std::to_string(stats.offered));
        return;
      }
      tenant_offered += stats.offered;
      tenant_completed += stats.completed;
      tenant_rejected += stats.rejected;
    }
    if (tenant_offered != summary.offered) {
      fail("tenant ledgers do not sum to offered: " +
           std::to_string(tenant_offered) +
           " != " + std::to_string(summary.offered));
      return;
    }

    // The tenant ledgers must agree with the metrics registry (local
    // executions count as served; stranded rejects as rejected).
    const auto counter = [&](const char* name) -> std::uint64_t {
      const obs::Counter* c2 = platform.metrics().find_counter(name);
      return c2 != nullptr ? c2->value() : 0;
    };
    if (tenant_completed !=
        counter("sessions.completed") + counter("sessions.local")) {
      fail("tenant completions disagree with sessions counters");
      return;
    }
    if (tenant_rejected !=
        counter("sessions.rejected") + counter("sessions.stranded")) {
      fail("tenant rejects disagree with sessions counters");
      return;
    }

    // RAC ledger laws.  Blocking is monotone in violations: a block
    // fires exactly when a tenant accrues `violation_threshold` fresh
    // violations, so the violation count bounds the block count.
    const std::uint64_t violations = counter("rac.violations");
    const std::uint64_t blocks = counter("rac.blocks");
    const std::uint64_t unblocks = counter("rac.unblocks");
    const std::uint64_t quota_denied = counter("rac.denied.quota");
    if (violations < blocks * c.platform.access.violation_threshold) {
      fail("blocks not covered by violations: " + std::to_string(blocks) +
           " blocks x threshold " +
           std::to_string(c.platform.access.violation_threshold) + " > " +
           std::to_string(violations) + " violations");
      return;
    }
    if (counter("rac.denied.violation") != violations) {
      fail("violation denies diverge from the violation ledger");
      return;
    }
    if (unblocks > blocks) {
      fail("more unblocks than blocks");
      return;
    }
    if (c.platform.access.block_duration == 0 && unblocks != 0) {
      fail("permanent block unblocked");
      return;
    }
    if (c.platform.access.tenant_quota == 0 && quota_denied != 0) {
      fail("quota denies with the quota disarmed");
      return;
    }
    if (blocks == 0 && counter("rac.denied.blocked") != 0) {
      fail("denied-while-blocked without any block");
      return;
    }
    blocks_total += blocks;
    unblocks_total += unblocks;
    quota_denies_total += quota_denied;
  });

  for (const std::string& failure : failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_GT(checks_total.load(), 0u)
      << "the post-event invariant hook never ran";
  // The battery is not vacuous: across 200 attack runs the defense
  // actually blocked, unblocked and quota-clipped tenants.
  EXPECT_GT(blocks_total.load(), 0u) << "no seed ever blocked a tenant";
  EXPECT_GT(unblocks_total.load(), 0u) << "no penalty window ever expired";
  EXPECT_GT(quota_denies_total.load(), 0u) << "no quota ever clipped";
}

TEST(RacBattery, BlockingIsMonotoneInViolationThreshold) {
  // The same permission-probing attack replayed against a descending
  // violation threshold: a stricter RAC can only block as often or more
  // often, and the honest victim's completions never degrade.
  const auto run_with_threshold = [](std::uint32_t threshold) {
    PlatformConfig config = make_config(PlatformKind::kRattrap);
    config.seed = 41;
    config.force_invariants = true;
    config.admission.enabled = true;
    config.access.violation_threshold = threshold;
    config.access.block_duration = sim::from_seconds(2.0);
    Platform platform(std::move(config));

    LoadDriverConfig driver;
    driver.loadgen.arrival = sim::ArrivalProcess::kPoisson;
    driver.loadgen.devices = 8;
    driver.loadgen.requests = 80;
    driver.loadgen.rate_per_s = 10.0;
    driver.loadgen.seed = 41;
    driver.size_class = 1;
    driver.loadgen.mix = {
        {"victim", 0, 2, 1.0, sim::AdversaryProfile::kNone},
        {"prober", 1, 1, 1.0, sim::AdversaryProfile::kPermissionProbe},
    };
    const LoadSummary summary = run_load(platform, driver);
    EXPECT_TRUE(platform.invariants().ok())
        << platform.invariants().report();
    const obs::Counter* blocks =
        platform.metrics().find_counter("rac.blocks");
    const auto victim = summary.by_tenant.find("victim");
    return std::make_pair(blocks != nullptr ? blocks->value() : 0,
                          victim != summary.by_tenant.end()
                              ? victim->second.completed
                              : 0);
  };

  std::uint64_t previous_blocks = 0;
  std::size_t honest_completed = 0;
  bool first = true;
  for (const std::uint32_t threshold : {16u, 8u, 4u, 2u}) {
    const auto [blocks, victim_completed] = run_with_threshold(threshold);
    if (!first) {
      EXPECT_GE(blocks, previous_blocks)
          << "threshold " << threshold << " blocked less than a laxer RAC";
      EXPECT_GE(victim_completed, honest_completed)
          << "a stricter RAC degraded the honest victim";
    }
    previous_blocks = blocks;
    honest_completed = victim_completed;
    first = false;
  }
  EXPECT_GT(previous_blocks, 0u) << "the strictest threshold never blocked";
}

TEST(RacBattery, UnblockRestoresServiceAfterPenaltyWindow) {
  // A tenant probes its way into a 2 s block, is denied while blocked,
  // then — after the window expires — completes honest work again.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 43;
  config.force_invariants = true;
  config.access.violation_threshold = 2;
  config.access.block_duration = sim::from_seconds(2.0);
  Platform platform(std::move(config));

  // Phase 1+2 probe on every request (two probes trip threshold 2 on
  // the first request's upload); phase 3 arrives at t=10 s, honest.
  SessionConfig abusive;
  abusive.tenant = "mallory";
  abusive.probe_ops = {Operation::kWriteSharedLayer,
                       Operation::kReadForeignCode};
  SessionConfig honest;
  honest.tenant = "mallory";

  const auto stream_at = [](std::vector<sim::SimTime> arrivals,
                            std::uint64_t seed) {
    return workloads::make_stream_from_arrivals(
        workloads::Kind::kLinpack, arrivals, 1, 1, seed);
  };

  Result<Session> abuser = platform.open_session(abusive);
  ASSERT_TRUE(abuser.ok());
  for (const auto& request :
       stream_at({0, sim::from_seconds(0.5), sim::from_seconds(1.0)}, 1)) {
    abuser->submit(request);
  }
  const auto abuse_outcomes = abuser->close();

  // The probes tripped the threshold: the abuser was blocked, and at
  // least one later request was denied while the block was in force.
  ASSERT_EQ(abuse_outcomes.size(), 3u);
  std::size_t denied = 0;
  for (const auto& outcome : abuse_outcomes) {
    if (outcome.rejected) {
      EXPECT_EQ(outcome.reject_reason, RejectReason::kAccessDenied);
      ++denied;
    }
  }
  EXPECT_GE(denied, 1u) << "the block never denied an in-window request";

  // After the penalty window the same tenant's honest work completes.
  Result<Session> reformed = platform.open_session(honest);
  ASSERT_TRUE(reformed.ok()) << "open_session denied after the window";
  for (const auto& request : stream_at({sim::from_seconds(10.0)}, 2)) {
    reformed->submit(request);
  }
  const auto reformed_outcomes = reformed->close();
  ASSERT_EQ(reformed_outcomes.size(), 1u);
  EXPECT_FALSE(reformed_outcomes[0].rejected)
      << "service was not restored after the penalty window expired";

  const obs::Counter* unblocks =
      platform.metrics().find_counter("rac.unblocks");
  ASSERT_NE(unblocks, nullptr);
  EXPECT_GE(unblocks->value(), 1u);
  EXPECT_TRUE(platform.invariants().ok()) << platform.invariants().report();
}

}  // namespace
}  // namespace rattrap::core
