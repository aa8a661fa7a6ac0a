// Environment table unit tests: the one registry and lifecycle state
// machine behind every environment (docs/ELASTIC.md).  The ContainerDb
// and CacLifecycle suites keep the names of the paper's Container DB
// (§IV-A) and of the CAC lifecycle; the EnvTable suite covers the
// indexes and the engine's choice orders on top of them.
#include "core/env_table.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "core/platform.hpp"
#include "platform_test_peer.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

using sim::kSecond;

/// Adds an environment and admits it (cold → booting).
EnvRecord& admit(EnvTable& table, EnvKey key, sim::SimTime now,
                 std::uint64_t memory_bytes = 100) {
  EnvRecord& record =
      table.add(EnvBacking::kContainer, key, now);
  record.memory_bytes = memory_bytes;
  table.transition(record.id, EnvState::kBooting, now);
  return record;
}

// ------------------------------------------------------------- registry

TEST(ContainerDb, AddAndFind) {
  EnvTable table;
  EnvRecord& record = table.add(EnvBacking::kContainer, EnvKey::device(0), 100);
  EXPECT_EQ(record.id, 1u);
  EXPECT_EQ(record.state(), EnvState::kCold);
  EXPECT_EQ(record.provisioned_at, 100);
  EXPECT_EQ(table.find(1), &record);
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_EQ(table.find(0), nullptr);
}

TEST(ContainerDb, FindByKey) {
  EnvTable table;
  table.add(EnvBacking::kContainer, EnvKey::device(0), 0);
  table.add(EnvBacking::kContainer, EnvKey::device(1), 0);
  EnvRecord* record = table.find_by_key(EnvKey::device(1));
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->id, 2u);
  EXPECT_EQ(table.find_by_key(EnvKey::device(9)), nullptr);
}

TEST(ContainerDb, RetiredEnvsAreNotFoundByKey) {
  EnvTable table;
  admit(table, EnvKey::device(0), 0);
  table.transition(1, EnvState::kReclaimed, 0);
  EXPECT_EQ(table.find_by_key(EnvKey::device(0)), nullptr);
  EXPECT_TRUE(table.first_error().empty());
  table.transition(1, EnvState::kReclaimed, 0);  // reclaimed is terminal
  EXPECT_FALSE(table.first_error().empty());
  EXPECT_EQ(table.count(EnvState::kReclaimed), 1u);
}

TEST(ContainerDb, StateCounts) {
  EnvTable table;
  admit(table, EnvKey::device(0), 0);
  admit(table, EnvKey::device(1), 0);
  admit(table, EnvKey::device(2), 0);
  table.transition(1, EnvState::kReclaimed, 0);
  table.transition(2, EnvState::kWarmIdle, 0);
  table.transition(3, EnvState::kLeased, 0);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.count(EnvState::kWarmIdle), 1u);
  EXPECT_EQ(table.count(EnvState::kLeased), 1u);
  EXPECT_EQ(table.count(EnvState::kReclaimed), 1u);
  EXPECT_EQ(table.live_count(), 2u);
  EXPECT_FALSE(table.find(1)->live());
  EXPECT_TRUE(table.find(2)->live());
  EXPECT_TRUE(table.find(3)->live());
}

TEST(ContainerDb, IdsListing) {
  EnvTable table;
  table.add(EnvBacking::kVm, EnvKey::device(0), 0);
  table.add(EnvBacking::kVm, EnvKey::device(1), 0);
  ASSERT_EQ(table.records().size(), 2u);
  // Allocation order is ascending, and records() visits it in order.
  EXPECT_EQ(table.records().front().id, 1u);
  EXPECT_EQ((*std::next(table.records().begin())).id, 2u);
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
  admit(table, EnvKey::device(0), 0);
  EXPECT_EQ(table.find(1)->state(), EnvState::kBooting);
  EXPECT_EQ(table.count(EnvState::kBooting), 1u);
  EXPECT_EQ(table.count(EnvState::kCold), 0u);
  EXPECT_EQ(table.transitions_into(EnvState::kBooting), 1u);
  EXPECT_TRUE(table.first_error().empty());
}

TEST(CacLifecycle, FullHappyPathKeepsCountsConserved) {
  EnvTable table;
  admit(table, EnvKey::device(0), 0);
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
}

TEST(CacLifecycle, IllegalEdgeRecordsErrorAndKeepsState) {
  EnvTable table;
  admit(table, EnvKey::device(0), 0);
  table.transition(1, EnvState::kWarmIdle, 1 * kSecond);
  table.transition(1, EnvState::kReclaimed, 2 * kSecond);
  // reclaimed is terminal: nothing leaves it.
  table.transition(1, EnvState::kWarmIdle, 3 * kSecond);
  EXPECT_EQ(table.find(1)->state(), EnvState::kReclaimed);
  EXPECT_NE(table.first_error().find("reclaimed -> warm_idle"),
            std::string::npos)
      << table.first_error();
}

TEST(CacLifecycle, UntrackedAndDoubleAdmitAreErrors) {
  EnvTable table;
  table.transition(7, EnvState::kWarmIdle, 0);
  EXPECT_FALSE(table.first_error().empty());

  EnvTable table2;
  admit(table2, EnvKey::device(0), 0);
  table2.transition(1, EnvState::kBooting, 1 * kSecond);
  EXPECT_FALSE(table2.first_error().empty());
  EXPECT_EQ(table2.size(), 1u);
  EXPECT_EQ(table2.count(EnvState::kBooting), 1u);
}

TEST(CacLifecycle, IdleByteSecondsIntegratesWarmIdleOnly) {
  EnvTable table;
  admit(table, EnvKey::device(0), 0, /*memory_bytes=*/1000);
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

TEST(CacLifecycle, IdleByteSecondsAddsOpenIntervalsInIdOrder) {
  // The accessor keeps a compact array of the held records' open
  // warm-idle intervals; erasing records (enough to compact it) must
  // leave a sum that rounds exactly as a walk over the records in id
  // order does: the reference below.
  EnvTable table;
  constexpr EnvId kRecords = 24;
  double closed = 0;
  std::map<EnvId, sim::SimTime> warm_since;
  for (EnvId id = 1; id <= kRecords; ++id) {
    admit(table, EnvKey::device(id), 0, /*memory_bytes=*/1000 + 37 * id);
    table.transition(id, EnvState::kWarmIdle, id * 3 * kSecond / 7);
    warm_since[id] = id * 3 * kSecond / 7;
  }
  // Three of every four records leave warm-idle and are erased; of the
  // rest, every other one is leased.
  for (EnvId id = 1; id <= kRecords; ++id) {
    if (id % 8 == 4) continue;
    const sim::SimTime now = 20 * kSecond + id * kSecond / 3;
    closed += static_cast<double>(table.find(id)->memory_bytes) *
              sim::to_seconds(now - warm_since[id]);
    warm_since.erase(id);
    const bool erase = id % 4 != 0;
    table.transition(id, erase ? EnvState::kReclaimed : EnvState::kLeased,
                     now);
    if (erase) (void)table.erase(id);
  }
  ASSERT_EQ(warm_since.size(), 3u);
  const sim::SimTime now = 40 * kSecond;
  double walk = closed;
  for (const EnvRecord& record : table.records()) {
    if (record.state() != EnvState::kWarmIdle) continue;
    walk += static_cast<double>(record.memory_bytes) *
            sim::to_seconds(now - warm_since.at(record.id));
  }
  EXPECT_EQ(table.idle_byte_seconds(now), walk);
}

TEST(CacLifecycle, HookSeesUpdatedCounts) {
  // Every transition publishes the already-updated population of both
  // endpoints; the cold pseudo-state is never published.
  obs::MetricsRegistry metrics;
  EnvTable table;
  table.set_metrics(&metrics);
  admit(table, EnvKey::device(0), 0);
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
  admit(table, EnvKey::device(0), 0);
  admit(table, EnvKey::device(0), 0);
  ASSERT_NE(table.find_by_key(EnvKey::device(0)), nullptr);
  EXPECT_EQ(table.find_by_key(EnvKey::device(0))->id, 1u);
  table.transition(1, EnvState::kReclaimed, 0);
  ASSERT_NE(table.find_by_key(EnvKey::device(0)), nullptr);
  EXPECT_EQ(table.find_by_key(EnvKey::device(0))->id, 2u);
}

TEST(EnvTable, RebindMovesTheKeyIndex) {
  EnvTable table;
  admit(table, EnvKey::pool(0), 0);
  EXPECT_TRUE(table.rebind(1, EnvKey::device(5)));
  EXPECT_EQ(table.find(1)->key(), EnvKey::device(5));
  EXPECT_EQ(table.find_by_key(EnvKey::pool(0)), nullptr);
  ASSERT_NE(table.find_by_key(EnvKey::device(5)), nullptr);
  EXPECT_EQ(table.find_by_key(EnvKey::device(5))->id, 1u);
  EXPECT_FALSE(table.rebind(9, EnvKey::device(6)));
  // A reclaimed record keeps its key but is never found by it.
  table.transition(1, EnvState::kReclaimed, 0);
  EXPECT_TRUE(table.rebind(1, EnvKey::device(7)));
  EXPECT_EQ(table.find_by_key(EnvKey::device(7)), nullptr);
}

TEST(EnvTable, PoolClaimTakesTheLowestId) {
  EnvTable table;
  for (int i = 0; i < 3; ++i) admit(table, EnvKey::pool(static_cast<std::uint32_t>(i)), 0);
  table.add_to_pool(3);
  table.add_to_pool(1);
  table.add_to_pool(2);
  EXPECT_EQ(table.pool_bytes(), 300u);
  EXPECT_EQ(table.claim_pool(), std::optional<EnvId>(1));
  EXPECT_FALSE(table.pooled(1));
  EXPECT_EQ(table.pool_bytes(), 200u);
  EXPECT_EQ(table.claim_pool(), std::optional<EnvId>(2));
  EXPECT_EQ(table.claim_pool(), std::optional<EnvId>(3));
  EXPECT_EQ(table.claim_pool(), std::nullopt);
  EXPECT_EQ(table.pool_bytes(), 0u);
}

TEST(EnvTable, DrainAndReclaimLeaveThePool) {
  EnvTable table;
  for (int i = 0; i < 3; ++i) admit(table, EnvKey::pool(static_cast<std::uint32_t>(i)), 0);
  for (EnvId id = 1; id <= 3; ++id) table.add_to_pool(id);
  table.transition(2, EnvState::kDraining, 0);
  table.transition(3, EnvState::kReclaimed, 0);
  EXPECT_EQ(table.pool(), (std::set<EnvId>{1}));
  table.add_to_pool(2);  // draining capacity is never claimable again
  table.add_to_pool(3);
  EXPECT_EQ(table.pool(), (std::set<EnvId>{1}));
  EXPECT_EQ(table.pool_bytes(), 100u);
}

TEST(EnvTable, PooledCountFollowsStateAndMembership) {
  EnvTable table;
  for (int i = 0; i < 3; ++i) {
    admit(table, EnvKey::pool(static_cast<std::uint32_t>(i)), 0);
  }
  table.add_to_pool(1);
  table.add_to_pool(2);
  EXPECT_EQ(table.pooled_count(EnvState::kBooting), 2u);
  EXPECT_EQ(table.pooled_count(EnvState::kWarmIdle), 0u);
  table.transition(1, EnvState::kWarmIdle, kSecond);
  table.transition(3, EnvState::kWarmIdle, kSecond);  // not pooled
  EXPECT_EQ(table.pooled_count(EnvState::kBooting), 1u);
  EXPECT_EQ(table.pooled_count(EnvState::kWarmIdle), 1u);
  EXPECT_EQ(table.claim_pool(), std::optional<EnvId>(1));
  EXPECT_EQ(table.pooled_count(EnvState::kWarmIdle), 0u);
  table.transition(2, EnvState::kDraining, kSecond);
  EXPECT_EQ(table.pooled_count(EnvState::kBooting), 0u);
  EXPECT_EQ(table.pooled_count(EnvState::kDraining), 0u);
  EXPECT_TRUE(table.pool().empty());
}

TEST(EnvTable, MetricsTrackAddsRetirementsAndFirstTouch) {
  obs::MetricsRegistry metrics;
  EnvTable table;
  table.set_metrics(&metrics);
  // envdb.* exist from attachment; elastic.* only once touched.
  ASSERT_NE(metrics.find_gauge("envdb.active"), nullptr);
  EXPECT_EQ(metrics.find_counter("elastic.transitions.booting"), nullptr);
  admit(table, EnvKey::device(0), 0);
  admit(table, EnvKey::device(1), 0);
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
  admit(table, EnvKey::device(0), 0);
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
  admit(table, EnvKey::device(0), 0, /*memory_bytes=*/1000);
  admit(table, EnvKey::device(1), 2 * kSecond, /*memory_bytes=*/10);
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
  bool newest_gone = false;
  platform.server().simulator().schedule_at(
      20 * kSecond, [&platform, &drained, &after, &newest_gone]() {
        ASSERT_EQ(platform.capacity().warm_idle_count(), 3u);
        drained = platform.capacity().elastic_retire_warm(1);
        for (EnvId id = 1; id <= 2; ++id) {
          after.push_back(platform.env_table().find(id)->state());
        }
        // Reclaimed with nothing bound, env 3 left the table.
        newest_gone = platform.env_table().find(3) == nullptr &&
                      platform.env_table().count(EnvState::kReclaimed) == 1;
      });
  (void)session->close();
  EXPECT_EQ(drained, 1u);
  EXPECT_EQ(after, (std::vector<EnvState>{EnvState::kWarmIdle,
                                          EnvState::kWarmIdle}));
  EXPECT_TRUE(newest_gone);
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

TEST(InvariantOracle, BoundSessionOnAnErasedEnvFailsLiveness) {
  // A bound session pins its record; erasing a leased one early must not
  // hide the session from session-env-liveness.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.force_invariants = true;
  config.env_idle_timeout = 0;
  Platform platform(std::move(config));
  EnvTable::Records::node_type erased;  // dropped before the platform
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  for (const auto& request : linpack_stream(6, 2, kSecond)) {
    session->submit(request);
  }
  std::optional<std::uint64_t> planted_check;
  EnvId planted_id = 0;
  for (int tick = 1; tick < 400; ++tick) {
    platform.server().simulator().schedule_at(tick * (kSecond / 20), [&]() {
      if (planted_check) return;
      for (const EnvRecord& rec : platform.env_table().records()) {
        if (rec.state() != EnvState::kLeased || rec.inflight == 0) continue;
        planted_check = platform.invariants().checks_run();
        planted_id = rec.id;
        erased = PlatformTestPeer::erase_env(platform, rec.id);
        return;
      }
    });
  }
  (void)session->close();
  ASSERT_TRUE(planted_check.has_value()) << "no leased env to erase";
  ASSERT_FALSE(erased.empty());
  EXPECT_EQ(platform.env_table().find(planted_id), nullptr);
  const InvariantChecker& invariants = platform.invariants();
  ASSERT_FALSE(invariants.ok());
  EXPECT_EQ(invariants.first_violation()->event_index, *planted_check)
      << invariants.report();
  bool found = false;
  for (const InvariantViolation& v : invariants.violations()) {
    if (v.event_index != *planted_check) continue;
    if (v.name != "session-env-liveness") continue;
    found = v.detail.find("erased env " + std::to_string(planted_id)) !=
            std::string::npos;
  }
  EXPECT_TRUE(found) << invariants.report();
}

}  // namespace
}  // namespace rattrap::core
