// Fault-injection integration: every fault class fires against the full
// Rattrap platform, every session either completes or is cleanly
// rejected, and the cross-component invariants hold after every event.
// Also the regression suite for the recovery machinery itself: crashed
// environments are reclaimed in the environment table immediately, recovery
// re-dispatches their sessions, and disabling recovery is *detected* by
// the invariant harness rather than silently tolerated.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/platform.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

struct RunSetup {
  std::string plan;
  std::size_t count = 30;
  std::uint32_t devices = 6;
  std::uint64_t seed = 11;
  bool crash_recovery = true;
};

struct RunHandle {
  std::unique_ptr<Platform> platform;
  std::vector<RequestOutcome> outcomes;
};

RunHandle run_with_faults(const RunSetup& setup) {
  PlatformConfig config =
      make_config(PlatformKind::kRattrap, net::lan_wifi(), setup.seed);
  const auto plan = sim::FaultPlan::parse(setup.plan);
  EXPECT_TRUE(plan.has_value()) << setup.plan;
  config.fault_plan = *plan;
  config.crash_recovery = setup.crash_recovery;
  RunHandle handle;
  handle.platform = std::make_unique<Platform>(std::move(config));
  handle.outcomes = handle.platform->run(workloads::make_mixed_stream(
      setup.count / 4, setup.devices, 2 * sim::kSecond, setup.seed));
  return handle;
}

void expect_all_accounted(const RunHandle& handle) {
  for (const auto& outcome : handle.outcomes) {
    EXPECT_GT(outcome.response, 0) << "request " << outcome.request.sequence;
    EXPECT_FALSE(outcome.stranded)
        << "request " << outcome.request.sequence << " stranded";
  }
}

TEST(FaultInjectionTest, EveryFaultClassFiresAndInvariantsHold) {
  // One run per fault class, each with the probability cranked high
  // enough that the class must fire at least once on this seed.
  const struct {
    sim::FaultKind kind;
    const char* plan;
  } kCases[] = {
      {sim::FaultKind::kNetDrop, "net.drop:p=0.4"},
      {sim::FaultKind::kNetCorrupt, "net.corrupt:p=0.5"},
      {sim::FaultKind::kNetDelay, "net.delay:p=0.5,delay_ms=300"},
      {sim::FaultKind::kTmpfsWriteFail, "tmpfs.write_fail:p=0.8"},
      {sim::FaultKind::kDiskWriteFail,
       "tmpfs.write_fail:p=1;disk.write_fail:p=0.8"},
      {sim::FaultKind::kBinderFail, "binder.fail:p=0.5"},
      {sim::FaultKind::kDevNsTeardown, "devns.teardown:p=0.5"},
      {sim::FaultKind::kContainerCrash, "container.crash:p=0.3"},
      {sim::FaultKind::kContainerOom, "container.oom:p=0.3"},
      {sim::FaultKind::kCacheEvict, "cache.evict:p=0.8"},
  };
  for (const auto& test_case : kCases) {
    SCOPED_TRACE(test_case.plan);
    const RunHandle handle = run_with_faults({test_case.plan});
    EXPECT_GT(handle.platform->fault_injector()->fired_count(test_case.kind),
              0u)
        << sim::to_string(test_case.kind) << " never fired";
    EXPECT_TRUE(handle.platform->invariants().ok())
        << handle.platform->invariants().report();
    EXPECT_GT(handle.platform->invariants().checks_run(), 0u);
    expect_all_accounted(handle);
  }
}

TEST(FaultInjectionTest, AllClassesAtOnceStayConsistent) {
  const RunHandle handle = run_with_faults(
      {"net.drop:p=0.1;net.corrupt:p=0.1;net.delay:p=0.1;"
       "tmpfs.write_fail:p=0.2;disk.write_fail:p=0.2;binder.fail:p=0.1;"
       "devns.teardown:p=0.1;container.crash:p=0.08;container.oom:p=0.05;"
       "cache.evict:p=0.2",
       /*count=*/40});
  EXPECT_GT(handle.platform->fault_injector()->total_fired(), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

TEST(FaultInjectionTest, CrashedSessionsAreRedispatchedAndComplete) {
  const RunHandle handle =
      run_with_faults({"container.crash:p=0.25", /*count=*/40,
                       /*devices=*/4, /*seed=*/3});
  const auto& monitor = handle.platform->server().monitor();
  ASSERT_GT(monitor.crashes_detected(), 0u);
  std::size_t recovered = 0;
  for (const auto& outcome : handle.outcomes) {
    if (outcome.recovered) {
      ++recovered;
      EXPECT_FALSE(outcome.rejected);
      EXPECT_GT(outcome.dispatch_attempts, 1u);
    }
  }
  EXPECT_GT(recovered, 0u) << "no session survived a crash via redispatch";
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

TEST(FaultInjectionTest, DisablingRecoveryTripsTheLivenessInvariant) {
  // The acceptance check with teeth: turn off the Dispatcher's crash
  // re-dispatch and the "no session bound to a dead CID" invariant must
  // catch the stranding the platform no longer repairs.
  const RunHandle handle = run_with_faults({"container.crash:p=0.3",
                                            /*count=*/40, /*devices=*/4,
                                            /*seed=*/3,
                                            /*crash_recovery=*/false});
  const auto& invariants = handle.platform->invariants();
  EXPECT_FALSE(invariants.ok());
  ASSERT_NE(invariants.first_violation(), nullptr);
  EXPECT_EQ(invariants.first_violation()->name, "session-env-liveness");
  std::size_t stranded = 0;
  for (const auto& outcome : handle.outcomes) {
    if (outcome.stranded) ++stranded;
  }
  EXPECT_GT(stranded, 0u);
}

TEST(FaultInjectionTest, StrandedSessionsReturnTheirTenantQuotaSlots) {
  // Regression: a session stranded on a dead environment (recovery off)
  // must give its RAC in-flight slot back when the run drains.  Leaking
  // it left the quota full, so every request of the next runs was
  // rejected quota_exceeded with nothing in flight.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.access.tenant_quota = 2;
  config.crash_recovery = false;
  const auto plan = sim::FaultPlan::parse("container.crash:p=1");
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;
  Platform platform(std::move(config));
  SessionConfig tenant;
  tenant.tenant = "t";
  for (int run = 0; run < 3; ++run) {
    Result<Session> opened = platform.open_session(tenant);
    ASSERT_TRUE(opened.ok());
    Session session = std::move(*opened);
    workloads::StreamConfig stream;
    stream.kind = workloads::Kind::kLinpack;
    stream.count = 2;
    stream.devices = 2;
    stream.seed = 7 + static_cast<std::uint64_t>(run);
    for (const auto& request : workloads::make_stream(stream)) {
      session.submit(request);
    }
    const std::vector<RequestOutcome> outcomes = session.close();
    ASSERT_EQ(outcomes.size(), 2u) << "run " << run;
    for (const auto& outcome : outcomes) {
      EXPECT_TRUE(outcome.stranded)
          << "run " << run << " request " << outcome.request.sequence
          << " rejected " << to_string(outcome.reject_reason);
    }
  }
}

TEST(FaultInjectionTest, ScheduledCrashFiresExactlyOnce) {
  const RunHandle handle =
      run_with_faults({"container.crash:at=5", /*count=*/24});
  EXPECT_EQ(handle.platform->fault_injector()->fired_count(
                sim::FaultKind::kContainerCrash),
            1u);
  EXPECT_EQ(handle.platform->server().monitor().crashes_detected(), 1u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

TEST(FaultInjectionTest, ConnectDropBudgetRejectsCleanly) {
  // Every handshake drops: the client retries with backoff, exhausts its
  // budget and gives up. The cloud never provisions anything.
  const RunHandle handle = run_with_faults({"net.drop:p=1", /*count=*/12});
  for (const auto& outcome : handle.outcomes) {
    EXPECT_TRUE(outcome.rejected);
    EXPECT_EQ(outcome.connect_attempts, 4u);  // config default budget
  }
  EXPECT_EQ(handle.platform->env_count(), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
}

TEST(FaultInjectionTest, TmpfsFailureSpillsWithoutLeakingStagedFiles) {
  const RunHandle handle =
      run_with_faults({"tmpfs.write_fail:p=1", /*count=*/20});
  const auto& shared = handle.platform->server().shared_layer();
  EXPECT_GT(shared.offload_io().injected_write_failures(), 0u);
  EXPECT_EQ(shared.staged_count(), 0u);       // nothing left staged
  EXPECT_EQ(shared.offload_io().used_bytes(), 0u);  // nothing leaked
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  expect_all_accounted(handle);
}

// --------------------------------------------------------------------
// Regression: failed/rejected offloads must not leave live Container DB
// records behind (the bug class the Dispatcher hardening closes).

TEST(FaultInjectionTest, ProvisionFailureLeavesOnlyRetiredDbRecords) {
  // Every container start dies on an injected device-namespace teardown:
  // all requests are rejected, and afterwards the Container DB must hold
  // nothing but retired records — a live record for a dead environment
  // is exactly what would mislead the Dispatcher's next assignment.
  const RunHandle handle =
      run_with_faults({"devns.teardown:p=1", /*count=*/16});
  for (const auto& outcome : handle.outcomes) {
    EXPECT_TRUE(outcome.rejected);
  }
  const EnvTable& envs = handle.platform->env_table();
  EXPECT_GT(envs.size(), 0u);
  EXPECT_EQ(envs.live_count(), 0u);
  EXPECT_EQ(envs.count(EnvState::kCold), 0u);
  EXPECT_EQ(envs.count(EnvState::kBooting), 0u);
  EXPECT_EQ(envs.count(EnvState::kWarmIdle), 0u);
  EXPECT_EQ(envs.count(EnvState::kLeased), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
}

TEST(FaultInjectionTest, CrashRetiresDbRecordAndAffinityMap) {
  // A crash must reclaim the environment's record immediately (before
  // the Monitor even notices) and scrub the AID→CID affinity map, so no
  // later request is routed at the corpse. The affinity-live invariant
  // checks this after every event.
  const RunHandle handle =
      run_with_faults({"container.crash:p=0.2", /*count=*/40,
                       /*devices=*/4, /*seed=*/3});
  ASSERT_GT(handle.platform->server().monitor().crashes_reported(), 0u);
  EXPECT_TRUE(handle.platform->invariants().ok())
      << handle.platform->invariants().report();
  const std::size_t retired =
      handle.platform->env_table().count(EnvState::kReclaimed);
  EXPECT_GT(retired, 0u);
}

TEST(FaultInjectionTest, CleanRunKeepsInjectorSilent) {
  // A platform with no fault plan has no injector, no invariant hook,
  // and exactly the pre-PR behavior.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  Platform platform(std::move(config));
  EXPECT_EQ(platform.fault_injector(), nullptr);
  const auto outcomes = platform.run(
      workloads::make_mixed_stream(3, 4, 2 * sim::kSecond, 17));
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.rejected);
    EXPECT_FALSE(outcome.recovered);
  }
  EXPECT_EQ(platform.invariants().checks_run(), 0u);
}

}  // namespace
}  // namespace rattrap::core
