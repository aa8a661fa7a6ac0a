// Invariant oracle teeth and differential test (docs/FAULTS.md).
//
// Teeth: for each of the 14 invariants, plant one violation through
// PlatformTestPeer in the middle of a small run and check the oracle
// reports that invariant at the very event the plant happened in.
//
// Differential: the incremental oracle (touched entities plus open
// violations) must report exactly what the full sweep over everything
// reports when run after every event beside it — over the fault plans,
// a recovery-off storm, RAC attack seeds and every planted tooth.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "../integration/rac_battery_case.hpp"
#include "android/app.hpp"
#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "platform_test_peer.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

using sim::kSecond;

constexpr const char* kTenant = "t";
/// Sessions of the teeth stream are all done well before this.
constexpr sim::SimTime kQuietAt = 40 * kSecond;
/// A sequence id no request of the stream uses.
constexpr std::uint64_t kGhostId = std::uint64_t{1} << 40;

/// One planted defect: `plant` is polled at a fixed cadence and returns
/// true once it has broken `invariant`.
struct Plant {
  const char* invariant;
  std::function<bool(Platform&)> plant;
};

/// Every invariant armed: admission with QoS (#8–#11), a static warm
/// pool under a memory budget (#13), and no idle reclamation, so nothing
/// tears an environment down behind a plant.
PlatformConfig teeth_config() {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.force_invariants = true;
  config.env_idle_timeout = 0;
  config.admission.enabled = true;
  config.admission.qos.enabled = true;
  config.elastic.mode = elastic::PoolMode::kStatic;
  config.elastic.static_target = 1;
  config.elastic.memory_budget_bytes = 3 * default_calibration().cac_opt_memory;
  return config;
}

std::vector<workloads::OffloadRequest> teeth_stream() {
  workloads::StreamConfig stream;
  stream.kind = workloads::Kind::kLinpack;
  stream.count = 8;
  stream.devices = 3;
  stream.mean_gap = kSecond;
  stream.seed = 5;
  return workloads::make_stream(stream);
}

SessionConfig tenant_session() {
  SessionConfig config;
  config.tenant = kTenant;
  return config;
}

sim::SimTime now(Platform& platform) {
  return platform.server().simulator().now();
}

/// A plant that waits for the run to go quiet.
std::function<bool(Platform&)> when_quiet(std::function<void(Platform&)> f) {
  return [f = std::move(f)](Platform& platform) {
    if (now(platform) < kQuietAt) return false;
    f(platform);
    return true;
  };
}

/// The lowest ready container environment, or 0.
EnvId ready_env(Platform& platform) {
  for (const EnvRecord& rec : platform.env_table().records()) {
    if (rec.ready() && rec.live()) return rec.id;
  }
  return 0;
}

std::vector<Plant> teeth() {
  std::vector<Plant> plants;

  // 1. Reclaim a leased environment behind the Monitor's back: its
  //    sessions stay bound to a dead env that no crash report covers.
  plants.push_back({"session-env-liveness", [](Platform& platform) {
    for (const EnvRecord& rec : platform.env_table().records()) {
      if (rec.state() != EnvState::kLeased) continue;
      PlatformTestPeer::env_table(platform).transition(
          rec.id, EnvState::kReclaimed, now(platform));
      return true;
    }
    return false;
  }});

  // 2. Map an environment that never existed in the App Warehouse.
  plants.push_back({"affinity-live", when_quiet([](Platform& platform) {
    std::string reference;
    platform.server().warehouse().for_each_entry(
        [&](const CacheEntry& entry) {
          if (reference.empty()) reference = entry.reference;
        });
    ASSERT_FALSE(reference.empty());
    platform.server().warehouse().record_execution(
        reference, static_cast<EnvId>(platform.env_count() + 7));
  })});

  // 3. Stage a tmpfs file with no ledger entry.
  plants.push_back({"tmpfs-accounting", when_quiet([](Platform& platform) {
    ASSERT_TRUE(platform.server().shared_layer().offload_io().write(
        "/stray", 4096, now(platform)));
  })});

  // 4. An empty stray file: the bytes agree, the file count does not.
  plants.push_back({"burn-after-reading", when_quiet([](Platform& platform) {
    ASSERT_TRUE(platform.server().shared_layer().offload_io().write(
        "/stray", 0, now(platform)));
  })});

  // 5. A Monitor job slot no session holds.
  plants.push_back({"monitor-jobs", when_quiet([](Platform& platform) {
    platform.server().monitor().job_started();
  })});

  // 6. Bump an environment's inflight pin count.
  plants.push_back({"inflight-consistency", when_quiet([](Platform& platform) {
    const EnvId id = ready_env(platform);
    ASSERT_NE(id, 0u);
    ++PlatformTestPeer::env_table(platform).find(id)->inflight;
    PlatformTestPeer::touch_env(platform, id);
  })});

  // 7. Stop a ready environment's CAC.
  plants.push_back({"db-consistency", when_quiet([](Platform& platform) {
    const EnvId id = ready_env(platform);
    ASSERT_NE(id, 0u);
    PlatformTestPeer::env(platform, id).cac->shutdown(
        platform.server().kernel());
    PlatformTestPeer::touch_env(platform, id);
  })});

  // 8. A class-queue entry the platform does not track.
  plants.push_back({"admission-queue-bound", when_quiet([](Platform& platform) {
    ASSERT_TRUE(platform.admission()->scheduler().push(
        qos::PriorityClass::kStandard, "ghost", kGhostId, now(platform)));
  })});

  // 9. An in-service slot no session holds.
  plants.push_back({"admission-in-service", when_quiet([](Platform& platform) {
    const auto admitted = platform.admission()->offer(
        {"ghost", qos::PriorityClass::kStandard, kGhostId}, now(platform));
    ASSERT_TRUE(admitted.ok());
    ASSERT_EQ(*admitted, AdmissionController::Admitted::kDispatch);
  })});

  // 10. Cut a tenant's weight while it holds a larger deficit.
  plants.push_back({"qos-drr-conservation", when_quiet([](Platform& platform) {
    qos::QosScheduler& scheduler = platform.admission()->scheduler();
    scheduler.set_tenant_weight("ghost", 3);
    for (std::uint64_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(scheduler.push(qos::PriorityClass::kStandard, "ghost",
                                 kGhostId + i, now(platform)));
    }
    ASSERT_TRUE(scheduler.pop(now(platform)).has_value());
    scheduler.set_tenant_weight("ghost", 1);
  })});

  // 11. A scheduler that re-grants the starvation burst back to back.
  plants.push_back({"qos-priority-burst", when_quiet([](Platform& platform) {
    qos::QosConfig config;
    config.enabled = true;
    config.starvation_burst = 1;
    config.promote_every = 0;
    qos::QosScheduler& scheduler = platform.admission()->scheduler();
    scheduler = qos::QosScheduler(config, 8);
    const sim::SimTime t = now(platform);
    ASSERT_TRUE(scheduler.push(qos::PriorityClass::kInteractive, "a",
                               kGhostId, t));
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(
          scheduler.push(qos::PriorityClass::kBatch, "b", kGhostId + i, t));
    }
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(scheduler.pop(t).has_value());
    // Leave no queued entry behind (that is #8's tooth).
    ASSERT_TRUE(
        scheduler.remove(qos::PriorityClass::kInteractive, "a", kGhostId));
    ASSERT_TRUE(
        scheduler.remove(qos::PriorityClass::kBatch, "b", kGhostId + 3));
    ASSERT_GT(scheduler.max_lower_run(), 1u);
  })});

  // 12. An illegal lifecycle edge: a booted environment boots again.
  plants.push_back({"lifecycle-state", when_quiet([](Platform& platform) {
    const EnvId id = ready_env(platform);
    ASSERT_NE(id, 0u);
    PlatformTestPeer::env_table(platform).transition(id, EnvState::kBooting,
                                                     now(platform));
  })});

  // 13. Boot warm-pool environments past the memory budget.
  plants.push_back({"elastic-memory-budget", when_quiet([](Platform& platform) {
    const std::uint64_t budget = platform.config().elastic.memory_budget_bytes;
    for (int guard = 0; guard < 16; ++guard) {
      std::uint64_t committed = 0;
      for (const EnvId id : platform.env_table().pool()) {
        committed += platform.env_table().find(id)->memory_bytes;
      }
      if (committed > budget) return;
      PlatformTestPeer::prewarm(platform);
    }
    FAIL() << "the pool never crossed the budget";
  })});

  // 14. Block a tenant with sessions in flight, through a block hook
  //     that reports the block but sweeps nothing.
  plants.push_back({"rac-blocked-isolation", [](Platform& platform) {
    if (platform.live_session_count() == 0) return false;
    auto& access = platform.server().access();
    access.on_block([&platform](const std::string& tenant, sim::SimTime) {
      PlatformTestPeer::touch_tenant(platform, tenant);
    });
    const std::string app =
        android::MobileApp::for_workload(workloads::Kind::kLinpack).app_id();
    for (std::uint32_t i = 0; i < access.threshold(); ++i) {
      access.check(app, kTenant, Operation::kWriteSharedLayer,
                   now(platform));
    }
    EXPECT_TRUE(access.blocked_at(kTenant, now(platform)));
    return true;
  }});
  return plants;
}

/// Where and when one plant landed.
struct Planted {
  std::uint64_t event_index = std::numeric_limits<std::uint64_t>::max();
  sim::SimTime at = -1;
};

/// Runs the teeth stream with `plant` polled every 50 ms of virtual time.
Planted run_with_plant(Platform& platform, const Plant& plant) {
  Planted planted;
  Result<Session> opened = platform.open_session(tenant_session());
  EXPECT_TRUE(opened.ok());
  Session session = std::move(*opened);
  for (const auto& request : teeth_stream()) session.submit(request);
  sim::Simulator& simulator = platform.server().simulator();
  for (sim::SimTime t = kSecond / 20; t <= kQuietAt; t += kSecond / 20) {
    simulator.schedule_at(t, [&platform, &plant, &planted]() {
      if (planted.at >= 0) return;
      // The check after this event has this index.
      const std::uint64_t index = platform.invariants().checks_run();
      if (!plant.plant(platform)) return;
      planted.event_index = index;
      planted.at = now(platform);
    });
  }
  (void)session.close();
  return planted;
}

TEST(InvariantOracle, EveryInvariantHasTeeth) {
  const std::vector<Plant> plants = teeth();
  ASSERT_EQ(plants.size(), 14u);
  for (const Plant& plant : plants) {
    SCOPED_TRACE(plant.invariant);
    Platform platform(teeth_config());
    const Planted planted = run_with_plant(platform, plant);
    ASSERT_EQ(platform.invariants().invariant_count(), 14u);
    ASSERT_GE(planted.at, 0) << "never planted";
    const InvariantChecker& invariants = platform.invariants();
    ASSERT_FALSE(invariants.ok());
    EXPECT_EQ(invariants.first_violation()->event_index, planted.event_index)
        << invariants.report();
    bool found = false;
    for (const InvariantViolation& v : invariants.violations()) {
      if (v.event_index != planted.event_index) continue;
      EXPECT_EQ(v.when, planted.at);
      if (v.name == plant.invariant) found = true;
    }
    EXPECT_TRUE(found) << invariants.report();
  }
}

TEST(InvariantOracle, QuiescentSweepCatchesAMissedTouchPoint) {
  // A mutation site that forgets its touch point: the incremental pass
  // cannot see the bumped pin count, the full sweep at the drain can.
  const Plant silent{"inflight-consistency", when_quiet([](Platform& platform) {
    const EnvId id = ready_env(platform);
    ASSERT_NE(id, 0u);
    ++PlatformTestPeer::env_table(platform).find(id)->inflight;
  })};
  Platform platform(teeth_config());
  ASSERT_GE(run_with_plant(platform, silent).at, 0);
  const InvariantChecker& invariants = platform.invariants();
  ASSERT_EQ(invariants.total_violations(), 1u) << invariants.report();
  EXPECT_EQ(invariants.first_violation()->name, "oracle-drift");
  EXPECT_NE(invariants.first_violation()->detail.find("inflight-consistency"),
            std::string::npos)
      << invariants.report();
}

TEST(InvariantOracle, ReusedSlotKeepsItsNewSessionsBook) {
  // A closed-loop crash storm: every ending submits its device's next
  // request at the same instant, so the follow-up's record takes the slot
  // the ending just freed.  The books are indexed by slot: the ending must
  // leave them before the follow-up enters, and a touch still carrying
  // the ended session's generation must not reach the follow-up's book.
  PlatformConfig config =
      make_config(PlatformKind::kRattrap, net::lan_wifi(), 3);
  const auto plan =
      sim::FaultPlan::parse("container.crash:p=0.3;net.drop:p=0.05");
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;
  config.max_redispatch = 12;
  Platform platform(std::move(config));
  sim::Simulator& simulator = platform.server().simulator();
  Result<Session> opened = platform.open_session();
  ASSERT_TRUE(opened.ok());
  Session& session = *opened;

  constexpr std::uint64_t kRequests = 60;
  std::map<std::uint64_t, PlatformTestPeer::SessionRef> arrived;
  std::uint64_t next = 0;
  const auto submit = [&](workloads::OffloadRequest request) {
    request.sequence = next++;
    session.submit(request);
    // Runs after the arrival: the record exists from then on.
    simulator.schedule_at(request.arrival, [&, sequence = request.sequence]() {
      if (const auto ref = PlatformTestPeer::session_ref(platform, sequence)) {
        arrived.emplace(sequence, *ref);
      }
    });
    return request.sequence;
  };
  std::uint64_t reused = 0;
  platform.set_completion_observer([&](const RequestOutcome& done) {
    if (next >= kRequests) return;
    // Copied first: the submit below may move `done`.
    const std::uint64_t ended = done.request.sequence;
    workloads::OffloadRequest request = done.request;
    request.arrival = simulator.now();
    const std::uint64_t follow_up = submit(request);
    simulator.schedule_at(simulator.now(), [&, ended, follow_up]() {
      const auto was = arrived.find(ended);
      const auto is = arrived.find(follow_up);
      if (was == arrived.end() || is == arrived.end()) return;
      if (was->second.slot != is->second.slot) return;
      ++reused;
      const std::uint32_t slot = was->second.slot;
      EXPECT_EQ(PlatformTestPeer::booked_sequence(platform, slot), follow_up);
      PlatformTestPeer::touch_session(platform, was->second);
      EXPECT_EQ(PlatformTestPeer::booked_sequence(platform, slot), follow_up)
          << "a touch with an old generation changed the books";
    });
  });
  for (const auto& request : teeth_stream()) {
    if (request.device_id < 2) (void)submit(request);
  }
  (void)session.close();
  platform.set_completion_observer({});

  EXPECT_EQ(next, kRequests);
  EXPECT_GT(reused, 0u) << "no follow-up took an ended session's slot";
  const InvariantChecker& invariants = platform.invariants();
  EXPECT_GT(invariants.checks_run(), 0u);
  EXPECT_TRUE(invariants.ok()) << invariants.report();
  for (const InvariantViolation& v : invariants.violations()) {
    EXPECT_NE(v.name, "oracle-drift") << v.detail;
  }
}

// ------------------------------------------------------------ differential

/// Keeps every violation, so the two checkers compare in full.
constexpr std::size_t kRecordAll = std::size_t{1} << 20;

/// Arms the per-event full sweep beside `platform`'s incremental oracle.
void arm_full_sweep(Platform& platform, InvariantChecker& full) {
  platform.invariants().set_max_recorded(kRecordAll);
  full.set_max_recorded(kRecordAll);
  ASSERT_TRUE(PlatformTestPeer::sweep_every_event(platform, full));
}

/// Both passes saw the same checks and the same violations; returns how
/// many violations they agreed on.
std::uint64_t expect_agree(const Platform& platform,
                           const InvariantChecker& full,
                           const std::string& label) {
  const InvariantChecker& incremental = platform.invariants();
  EXPECT_EQ(incremental.checks_run(), full.checks_run()) << label;
  EXPECT_EQ(incremental.total_violations(), full.total_violations()) << label;
  const auto& a = incremental.violations();
  const auto& b = full.violations();
  EXPECT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << label << " violation " << i;
    EXPECT_EQ(a[i].when, b[i].when) << label << " violation " << i;
    EXPECT_EQ(a[i].event_index, b[i].event_index)
        << label << " violation " << i;
    if (a[i].name != b[i].name || a[i].event_index != b[i].event_index) {
      break;  // one divergence is enough to read
    }
  }
  return incremental.total_violations();
}

TEST(InvariantOracle, IncrementalMatchesFullSweepEveryEvent) {
  std::uint64_t agreed = 0;
  std::uint64_t checks = 0;

  // The fault-injection plans (every class alone, then all at once) on
  // seeds 1–10, and a crash storm with recovery off, which strands
  // sessions on dead environments and must trip the oracle.
  const std::vector<std::string> plans = {
      "net.drop:p=0.4",
      "net.corrupt:p=0.5",
      "net.delay:p=0.5,delay_ms=300",
      "tmpfs.write_fail:p=0.8",
      "tmpfs.write_fail:p=1;disk.write_fail:p=0.8",
      "binder.fail:p=0.5",
      "devns.teardown:p=0.5",
      "container.crash:p=0.3",
      "container.oom:p=0.3",
      "cache.evict:p=0.8",
      "net.drop:p=0.1;net.corrupt:p=0.1;net.delay:p=0.1;"
      "tmpfs.write_fail:p=0.2;disk.write_fail:p=0.2;binder.fail:p=0.1;"
      "devns.teardown:p=0.1;container.crash:p=0.08;container.oom:p=0.05;"
      "cache.evict:p=0.2",
  };
  const auto run_plan = [&](const std::string& plan, std::uint64_t seed,
                            bool recovery) {
    const std::string label = plan + " seed " + std::to_string(seed) +
                              (recovery ? "" : " recovery off");
    PlatformConfig config =
        make_config(PlatformKind::kRattrap, net::lan_wifi(), seed);
    const auto parsed = sim::FaultPlan::parse(plan);
    ASSERT_TRUE(parsed.has_value()) << plan;
    config.fault_plan = *parsed;
    config.crash_recovery = recovery;
    Platform platform(std::move(config));
    InvariantChecker full;
    arm_full_sweep(platform, full);
    // One stream for every seed (its real kernels run once); the seed
    // moves the fault schedule.
    (void)platform.run(workloads::make_mixed_stream(
        recovery ? 7 : 10, recovery ? 6 : 4, 2 * kSecond, 11));
    agreed += expect_agree(platform, full, label);
    checks += full.checks_run();
  };
  for (const std::string& plan : plans) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      run_plan(plan, seed, /*recovery=*/true);
    }
  }
  const std::uint64_t before_storm = agreed;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    run_plan("container.crash:p=0.3", seed, /*recovery=*/false);
  }
  EXPECT_GT(agreed, before_storm) << "the recovery-off storm never tripped";

  // RAC attack battery seeds: admission, QoS, quotas, blocks and
  // unblocks under adversarial mixes.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const BatteryCase c = make_case(seed);
    Platform platform(c.platform);
    InvariantChecker full;
    arm_full_sweep(platform, full);
    (void)run_load(platform, c.driver);
    agreed += expect_agree(platform, full, "rac seed " + std::to_string(seed));
    checks += full.checks_run();
  }

  // Every planted tooth, and whatever it breaks afterwards.
  for (const Plant& plant : teeth()) {
    Platform platform(teeth_config());
    InvariantChecker full;
    arm_full_sweep(platform, full);
    const Planted planted = run_with_plant(platform, plant);
    EXPECT_GE(planted.at, 0) << plant.invariant;
    EXPECT_GT(full.total_violations(), 0u) << plant.invariant;
    agreed += expect_agree(platform, full, plant.invariant);
    checks += full.checks_run();
  }
  EXPECT_GT(checks, 0u);
  EXPECT_GT(agreed, 0u);
}

}  // namespace
}  // namespace rattrap::core
