// Environment table unit tests: the one registry and lifecycle state
// machine behind every environment (docs/ELASTIC.md).  The ContainerDb
// and CacLifecycle suites keep the names of the paper's Container DB
// (§IV-A) and of the CAC lifecycle; the EnvTable suite covers the
// indexes and the engine's choice orders on top of them.
#include "core/env_table.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/platform.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {

/// Reaches the platform's table to force a transition the engine never
/// makes.
struct PlatformTestPeer {
  static EnvTable& env_table(Platform& platform) {
    return platform.env_table_;
  }
};

namespace {

using sim::kSecond;

/// Adds an environment and admits it (cold → booting).
EnvRecord& admit(EnvTable& table, std::string key, sim::SimTime now,
                 std::uint64_t memory_bytes = 100) {
  EnvRecord& record =
      table.add(EnvBacking::kContainer, std::move(key), now);
  record.memory_bytes = memory_bytes;
  table.transition(record.id, EnvState::kBooting, now);
  return record;
}

// ------------------------------------------------------------- registry

TEST(ContainerDb, AddAndFind) {
  EnvTable table;
  EnvRecord& record = table.add(EnvBacking::kContainer, "dev:0", 100);
  EXPECT_EQ(record.id, 1u);
  EXPECT_EQ(record.state(), EnvState::kCold);
  EXPECT_EQ(record.provisioned_at, 100);
  EXPECT_EQ(table.find(1), &record);
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_EQ(table.find(0), nullptr);
}

TEST(ContainerDb, FindByKey) {
  EnvTable table;
  table.add(EnvBacking::kContainer, "dev:0", 0);
  table.add(EnvBacking::kContainer, "dev:1", 0);
  EnvRecord* record = table.find_by_key("dev:1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->id, 2u);
  EXPECT_EQ(table.find_by_key("dev:9"), nullptr);
}

TEST(ContainerDb, RetiredEnvsAreNotFoundByKey) {
  EnvTable table;
  admit(table, "dev:0", 0);
  table.transition(1, EnvState::kReclaimed, 0);
  EXPECT_EQ(table.find_by_key("dev:0"), nullptr);
  EXPECT_TRUE(table.first_error().empty());
  table.transition(1, EnvState::kReclaimed, 0);  // reclaimed is terminal
  EXPECT_FALSE(table.first_error().empty());
  EXPECT_EQ(table.count(EnvState::kReclaimed), 1u);
}

TEST(ContainerDb, StateCounts) {
  EnvTable table;
  admit(table, "a", 0);
  admit(table, "b", 0);
  admit(table, "c", 0);
  table.transition(1, EnvState::kReclaimed, 0);
  table.transition(2, EnvState::kWarmIdle, 0);
  table.transition(3, EnvState::kLeased, 0);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.count(EnvState::kWarmIdle), 1u);
  EXPECT_EQ(table.count(EnvState::kLeased), 1u);
  EXPECT_EQ(table.count(EnvState::kReclaimed), 1u);
  EXPECT_EQ(table.live_count(), 2u);
  EXPECT_EQ(table.live_ids(), (std::set<EnvId>{2, 3}));
}

TEST(ContainerDb, IdsListing) {
  EnvTable table;
  table.add(EnvBacking::kVm, "a", 0);
  table.add(EnvBacking::kVm, "b", 0);
  ASSERT_EQ(table.records().size(), 2u);
  EXPECT_EQ(table.records()[0].id, 1u);  // allocation order is ascending
  EXPECT_EQ(table.records()[1].id, 2u);
}

TEST(ContainerDb, StateNames) {
  EXPECT_STREQ(to_string(EnvState::kCold), "cold");
  EXPECT_STREQ(to_string(EnvState::kBooting), "booting");
  EXPECT_STREQ(to_string(EnvState::kWarmIdle), "warm_idle");
  EXPECT_STREQ(to_string(EnvState::kReclaimed), "reclaimed");
}

// ------------------------------------------------------------ lifecycle

TEST(CacLifecycle, AdmitEntersBooting) {
  EnvTable table;
  admit(table, "a", 0);
  EXPECT_EQ(table.find(1)->state(), EnvState::kBooting);
  EXPECT_EQ(table.count(EnvState::kBooting), 1u);
  EXPECT_EQ(table.count(EnvState::kCold), 0u);
  EXPECT_EQ(table.transitions_into(EnvState::kBooting), 1u);
  EXPECT_TRUE(table.first_error().empty());
}

TEST(CacLifecycle, FullHappyPathKeepsCountsConserved) {
  EnvTable table;
  admit(table, "a", 0);
  table.transition(1, EnvState::kWarmIdle, 1 * kSecond);
  table.transition(1, EnvState::kLeased, 2 * kSecond);
  table.transition(1, EnvState::kWarmIdle, 3 * kSecond);
  table.transition(1, EnvState::kDraining, 4 * kSecond);
  table.transition(1, EnvState::kReclaimed, 5 * kSecond);
  EXPECT_EQ(table.find(1)->state(), EnvState::kReclaimed);
  EXPECT_EQ(table.count(EnvState::kReclaimed), 1u);
  // Exactly one container: every other population is back to zero.
  EXPECT_EQ(table.count(EnvState::kBooting), 0u);
  EXPECT_EQ(table.count(EnvState::kWarmIdle), 0u);
  EXPECT_EQ(table.count(EnvState::kLeased), 0u);
  EXPECT_EQ(table.count(EnvState::kDraining), 0u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.first_error().empty());
  EXPECT_EQ(table.check(), std::nullopt);
}

TEST(CacLifecycle, IllegalEdgeRecordsErrorAndKeepsState) {
  EnvTable table;
  admit(table, "a", 0);
  table.transition(1, EnvState::kWarmIdle, 1 * kSecond);
  table.transition(1, EnvState::kReclaimed, 2 * kSecond);
  // reclaimed is terminal: nothing leaves it.
  table.transition(1, EnvState::kWarmIdle, 3 * kSecond);
  EXPECT_EQ(table.find(1)->state(), EnvState::kReclaimed);
  EXPECT_FALSE(table.first_error().empty());
  const auto verdict = table.check();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_NE(verdict->find("reclaimed -> warm_idle"), std::string::npos)
      << *verdict;
}

TEST(CacLifecycle, UntrackedAndDoubleAdmitAreErrors) {
  EnvTable table;
  table.transition(7, EnvState::kWarmIdle, 0);
  EXPECT_FALSE(table.first_error().empty());

  EnvTable table2;
  admit(table2, "a", 0);
  table2.transition(1, EnvState::kBooting, 1 * kSecond);
  EXPECT_FALSE(table2.first_error().empty());
  EXPECT_EQ(table2.size(), 1u);
  EXPECT_EQ(table2.count(EnvState::kBooting), 1u);
}

TEST(CacLifecycle, IdleByteSecondsIntegratesWarmIdleOnly) {
  EnvTable table;
  admit(table, "a", 0, /*memory_bytes=*/1000);
  table.transition(1, EnvState::kWarmIdle, 1 * kSecond);
  table.transition(1, EnvState::kLeased, 3 * kSecond);  // 2 s warm
  EXPECT_NEAR(table.idle_byte_seconds(10 * kSecond), 2000.0, 1e-6);
  table.transition(1, EnvState::kWarmIdle, 5 * kSecond);
  // The live warm interval is included by the accessor: 2 s closed +
  // 4 s still open at t=9.
  EXPECT_NEAR(table.idle_byte_seconds(9 * kSecond), 6000.0, 1e-6);
  table.transition(1, EnvState::kReclaimed, 9 * kSecond);
  EXPECT_NEAR(table.idle_byte_seconds(20 * kSecond), 6000.0, 1e-6);
}

TEST(CacLifecycle, HookSeesUpdatedCounts) {
  // Every transition publishes the already-updated population of both
  // endpoints; the cold pseudo-state is never published.
  obs::MetricsRegistry metrics;
  EnvTable table;
  table.set_metrics(&metrics);
  admit(table, "a", 0);
  ASSERT_NE(metrics.find_gauge("elastic.state.booting"), nullptr);
  EXPECT_EQ(metrics.find_gauge("elastic.state.booting")->value(), 1.0);
  EXPECT_EQ(metrics.find_gauge("elastic.state.cold"), nullptr);
  table.transition(1, EnvState::kWarmIdle, 1 * kSecond);
  EXPECT_EQ(metrics.find_gauge("elastic.state.booting")->value(), 0.0);
  EXPECT_EQ(metrics.find_gauge("elastic.state.warm_idle")->value(), 1.0);
  EXPECT_EQ(metrics.find_counter("elastic.transitions.booting")->value(),
            1u);
  EXPECT_EQ(metrics.find_counter("elastic.transitions.warm_idle")->value(),
            1u);
}

// ------------------------------------------------------ indexes & order

TEST(EnvTable, FindByKeyReturnsLowestLiveId) {
  EnvTable table;
  admit(table, "dev:0", 0);
  admit(table, "dev:0", 0);
  ASSERT_NE(table.find_by_key("dev:0"), nullptr);
  EXPECT_EQ(table.find_by_key("dev:0")->id, 1u);
  table.transition(1, EnvState::kReclaimed, 0);
  ASSERT_NE(table.find_by_key("dev:0"), nullptr);
  EXPECT_EQ(table.find_by_key("dev:0")->id, 2u);
}

TEST(EnvTable, RebindMovesTheKeyIndex) {
  EnvTable table;
  admit(table, "pool:0", 0);
  EXPECT_TRUE(table.rebind(1, "dev:5"));
  EXPECT_EQ(table.find(1)->key(), "dev:5");
  EXPECT_EQ(table.find_by_key("pool:0"), nullptr);
  ASSERT_NE(table.find_by_key("dev:5"), nullptr);
  EXPECT_EQ(table.find_by_key("dev:5")->id, 1u);
  EXPECT_FALSE(table.rebind(9, "dev:6"));
  // A reclaimed record keeps its key but is never found by it.
  table.transition(1, EnvState::kReclaimed, 0);
  EXPECT_TRUE(table.rebind(1, "dev:7"));
  EXPECT_EQ(table.find_by_key("dev:7"), nullptr);
}

TEST(EnvTable, PoolClaimTakesTheLowestId) {
  EnvTable table;
  for (int i = 0; i < 3; ++i) admit(table, "pool:" + std::to_string(i), 0);
  table.add_to_pool(3);
  table.add_to_pool(1);
  table.add_to_pool(2);
  EXPECT_EQ(table.claim_pool(), std::optional<EnvId>(1));
  EXPECT_FALSE(table.pooled(1));
  EXPECT_EQ(table.claim_pool(), std::optional<EnvId>(2));
  EXPECT_EQ(table.claim_pool(), std::optional<EnvId>(3));
  EXPECT_EQ(table.claim_pool(), std::nullopt);
}

TEST(EnvTable, DrainAndReclaimLeaveThePool) {
  EnvTable table;
  for (int i = 0; i < 3; ++i) admit(table, "pool:" + std::to_string(i), 0);
  for (EnvId id = 1; id <= 3; ++id) table.add_to_pool(id);
  table.transition(2, EnvState::kDraining, 0);
  table.transition(3, EnvState::kReclaimed, 0);
  EXPECT_EQ(table.pool(), (std::set<EnvId>{1}));
  table.add_to_pool(2);  // draining capacity is never claimable again
  table.add_to_pool(3);
  EXPECT_EQ(table.pool(), (std::set<EnvId>{1}));
}

TEST(EnvTable, MetricsTrackAddsRetirementsAndFirstTouch) {
  obs::MetricsRegistry metrics;
  EnvTable table;
  table.set_metrics(&metrics);
  // envdb.* exist from attachment; elastic.* only once touched.
  ASSERT_NE(metrics.find_gauge("envdb.active"), nullptr);
  EXPECT_EQ(metrics.find_counter("elastic.transitions.booting"), nullptr);
  admit(table, "a", 0);
  admit(table, "b", 0);
  EXPECT_EQ(metrics.find_gauge("envdb.active")->value(), 2.0);
  EXPECT_EQ(metrics.find_counter("envdb.added")->value(), 2u);
  table.transition(1, EnvState::kReclaimed, 0);
  EXPECT_EQ(metrics.find_gauge("envdb.active")->value(), 1.0);
  EXPECT_EQ(metrics.find_counter("envdb.retired")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("elastic.transitions.leased"), nullptr);
}

TEST(EnvTable, LifecycleSpansOnePerState) {
  obs::TraceRecorder trace;
  trace.enable();
  EnvTable table;
  table.set_trace(&trace);
  admit(table, "a", 0);
  table.transition(1, EnvState::kWarmIdle, 1 * kSecond);
  table.transition(1, EnvState::kReclaimed, 2 * kSecond);
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "booting");
  EXPECT_EQ(spans[0].track, kLifecycleTrackBase + 1);
  EXPECT_EQ(spans[0].end, 1 * kSecond);
  EXPECT_EQ(spans[1].name, "warm_idle");
  EXPECT_EQ(spans[1].end, 2 * kSecond);
  EXPECT_EQ(spans[2].name, "reclaimed");
  EXPECT_TRUE(spans[2].instant);
}

TEST(EnvTable, MemoryByteSecondsEndsAtReclaim) {
  EnvTable table;
  admit(table, "a", 0, /*memory_bytes=*/1000);
  admit(table, "b", 2 * kSecond, /*memory_bytes=*/10);
  table.transition(1, EnvState::kReclaimed, 3 * kSecond);
  // env 1: 1000 B × 3 s closed; env 2: 10 B × 8 s still open at t=10.
  EXPECT_NEAR(table.memory_byte_seconds(10 * kSecond), 3080.0, 1e-6);
}

// ------------------------------------------- choice orders on a platform

std::vector<workloads::OffloadRequest> linpack_stream(
    std::size_t count, std::uint32_t devices, sim::SimDuration gap,
    std::uint32_t size_class = 2) {
  workloads::StreamConfig config;
  config.kind = workloads::Kind::kLinpack;
  config.count = count;
  config.devices = devices;
  config.mean_gap = gap;
  config.size_class = size_class;
  config.seed = 31;
  return workloads::make_stream(config);
}

PlatformConfig static_pool_config(std::uint32_t target) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.elastic.mode = elastic::PoolMode::kStatic;
  config.elastic.static_target = target;
  config.force_invariants = true;
  return config;
}

TEST(EnvTable, RetireWarmDrainsNewestFirst) {
  Platform platform(static_pool_config(3));
  Result<Session> session = platform.open_session();  // prewarms envs 1..3
  ASSERT_TRUE(session.ok());
  std::uint32_t drained = 0;
  std::vector<EnvState> after;
  platform.server().simulator().schedule_at(
      20 * kSecond, [&platform, &drained, &after]() {
        ASSERT_EQ(platform.warm_idle_count(), 3u);
        drained = platform.elastic_retire_warm(1);
        for (EnvId id = 1; id <= 3; ++id) {
          after.push_back(platform.env_table().find(id)->state());
        }
      });
  (void)session->close();
  EXPECT_EQ(drained, 1u);
  EXPECT_EQ(after, (std::vector<EnvState>{EnvState::kWarmIdle,
                                          EnvState::kWarmIdle,
                                          EnvState::kReclaimed}));
}

TEST(EnvTable, PoolClaimServesLowestIdFirst) {
  Platform platform(static_pool_config(3));
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  workloads::OffloadRequest request =
      linpack_stream(1, 1, kSecond).front();
  request.arrival = 30 * kSecond;  // the pool has finished booting
  session->submit(request);
  const auto outcomes = session->close();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_FALSE(outcomes[0].rejected);
  EXPECT_EQ(outcomes[0].env_id, 1u);
  EXPECT_TRUE(platform.invariants().ok()) << platform.invariants().report();
}

/// The crash pump's rule: the lowest ready live id with sessions in
/// flight, else the lowest ready live id.
std::optional<EnvId> expected_crash_victim(const EnvTable& envs) {
  std::optional<EnvId> first_ready;
  for (const EnvRecord& rec : envs.records()) {
    if (!rec.ready()) continue;
    if (rec.inflight > 0) return rec.id;
    if (!first_ready) first_ready = rec.id;
  }
  return first_ready;
}

TEST(EnvTable, CrashPumpPrefersEnvWithSessionsInFlight) {
  // Staggered devices: the first finishes early and idles while later
  // ones still compute.  A probe run finds an instant where the lowest
  // ready id is idle but a higher one is busy; a one-shot crash at that
  // instant must pass over the idle env for the busy one.
  std::vector<workloads::OffloadRequest> stream =
      linpack_stream(3, 3, kSecond, /*size_class=*/3);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].device_id = static_cast<std::uint32_t>(i);
    stream[i].arrival = static_cast<sim::SimTime>(i) * 5 * kSecond;
  }
  std::optional<sim::SimTime> crash_at;
  {
    Platform probe(make_config(PlatformKind::kRattrap));
    Result<Session> session = probe.open_session();
    ASSERT_TRUE(session.ok());
    for (const auto& request : stream) session->submit(request);
    for (int tick = 1; tick < 600; ++tick) {
      const sim::SimTime at = tick * (kSecond / 10);
      probe.server().simulator().schedule_at(at, [&probe, &crash_at, at]() {
        const std::optional<EnvId> victim =
            expected_crash_victim(probe.env_table());
        if (crash_at || !victim || *victim == 1) return;
        if (probe.env_table().find(1)->ready()) crash_at = at;
      });
    }
    (void)session->close();
  }
  ASSERT_TRUE(crash_at.has_value())
      << "no idle env below a busy one; retune the stream";

  PlatformConfig config = make_config(PlatformKind::kRattrap);
  const auto plan = sim::FaultPlan::parse(
      "container.crash:at=" + std::to_string(sim::to_seconds(*crash_at)));
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;
  Platform platform(std::move(config));
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  for (const auto& request : stream) session->submit(request);
  std::optional<EnvId> expected;
  std::vector<EnvState> after;
  sim::Simulator& simulator = platform.server().simulator();
  simulator.schedule_at(*crash_at - 1, [&]() {
    expected = expected_crash_victim(platform.env_table());
  });
  simulator.schedule_at(*crash_at + 1, [&]() {
    for (const EnvRecord& rec : platform.env_table().records()) {
      after.push_back(rec.state());
    }
  });
  (void)session->close();
  ASSERT_TRUE(expected.has_value());
  EXPECT_GT(*expected, 1u);
  ASSERT_GE(after.size(), *expected);
  for (EnvId id = 1; id <= after.size(); ++id) {
    EXPECT_EQ(after[id - 1] == EnvState::kReclaimed, id == *expected)
        << "env " << id;
  }
}

TEST(EnvTable, LifecycleInvariantReportsForcedIllegalTransition) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.force_invariants = true;
  Platform platform(std::move(config));
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  for (const auto& request : linpack_stream(1, 1, kSecond)) {
    session->submit(request);
  }
  platform.server().simulator().schedule_at(60 * kSecond, [&platform]() {
    // Env 1 booted long ago: booting again is not an edge.
    PlatformTestPeer::env_table(platform).transition(
        1, EnvState::kBooting, platform.server().simulator().now());
  });
  (void)session->close();
  ASSERT_FALSE(platform.invariants().ok());
  const InvariantViolation* first = platform.invariants().first_violation();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->name, "lifecycle-state");
}

}  // namespace
}  // namespace rattrap::core
