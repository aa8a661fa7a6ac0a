// Property battery for cluster-scale load generation (docs/LOADGEN.md).
//
// Hundreds of randomized seeds sweep arrival process, fleet shape and
// admission configuration against a platform with the full invariant
// harness armed after every simulator event.  Each run must satisfy:
//
//   * zero invariant violations (the 7 platform invariants plus the two
//     admission-ledger invariants);
//   * the accounting identity — every offered request is recorded exactly
//     once as completed or rejected, and the sessions.* counters agree;
//   * no session is both rejected and executed;
//   * the accept queue never exceeds its bound (checked per event by the
//     harness, and terminally here);
//
// plus golden determinism: same seed + same config ⇒ byte-identical
// metrics JSON and trace JSON.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"

namespace rattrap::core {
namespace {

struct PropertyCase {
  PlatformConfig platform;
  LoadDriverConfig driver;
};

/// Derives a deterministic but varied scenario from a seed: arrival
/// process, fleet size, admission shape and workload all rotate.
PropertyCase make_case(std::uint64_t seed) {
  PropertyCase c;
  c.platform = make_config(PlatformKind::kRattrap);
  c.platform.seed = seed;
  c.platform.force_invariants = true;

  c.driver.loadgen.seed = seed;
  c.driver.loadgen.arrival = static_cast<sim::ArrivalProcess>(seed % 3);
  c.driver.loadgen.devices = 3 + static_cast<std::uint32_t>(seed % 9);
  c.driver.loadgen.requests = 30 + seed % 40;
  c.driver.loadgen.rate_per_s = 2.0 + static_cast<double>(seed % 50);
  c.driver.loadgen.think_time_s = 0.2 + 0.1 * static_cast<double>(seed % 7);
  c.driver.kind = static_cast<workloads::Kind>(seed % 4);
  c.driver.size_class = 1;
  c.driver.task_variants = 4;

  // Odd seeds run the admission front door in varied shapes; even seeds
  // keep the unprotected paper configuration.
  if (seed % 2 == 1) {
    c.platform.admission.enabled = true;
    c.platform.admission.max_in_service =
        1 + static_cast<std::uint32_t>(seed % 6);
    c.platform.admission.queue_capacity =
        static_cast<std::uint32_t>(seed % 5);  // 0 = admit-or-reject
    if (seed % 3 == 0) {
      c.platform.admission.tenant_rate_per_s =
          1.0 + static_cast<double>(seed % 10);
    }
    if (seed % 5 == 0) c.platform.admission.shed_utilization = 4.0;
    // A quarter of the admission seeds run the full QoS scheduler with a
    // three-class, two-tenant traffic mix (closed-loop seeds route it
    // through per-mix sessions; open-loop legacy runs degrade to the
    // standard lane).  The mix draws from a dedicated rng fork, so
    // arrival times are unchanged versus the plain seeds.
    if (seed % 4 == 3) {
      c.platform.admission.qos.enabled = true;
      c.driver.loadgen.mix = {
          {"gold", 0, 3, 1.0},    // interactive, weight 3
          {"bronze", 1, 1, 2.0},  // standard
          {"bronze", 2, 1, 1.0},  // batch
      };
    }
  }

  // A third of the seeds run the elastic capacity manager
  // (docs/ELASTIC.md), alternating the static and predictive pools and
  // occasionally pinning a memory budget — this is what exercises the
  // lifecycle-state and elastic-memory-budget invariants across the
  // battery.  Open-loop elastic seeds also shape the offered rate with
  // a ramp or diurnal profile.
  if (seed % 3 == 2) {
    c.platform.elastic.mode = (seed % 2 == 0)
                                  ? elastic::PoolMode::kStatic
                                  : elastic::PoolMode::kPredictive;
    c.platform.elastic.static_target =
        1 + static_cast<std::uint32_t>(seed % 4);
    c.platform.elastic.min_warm = static_cast<std::uint32_t>(seed % 2);
    c.platform.elastic.max_warm = 6;
    c.platform.elastic.tick_s = 0.25 + 0.25 * static_cast<double>(seed % 3);
    if (seed % 4 == 2) {
      c.platform.elastic.memory_budget_bytes = 256ull << 20;
    }
    c.driver.loadgen.profile =
        static_cast<sim::RateProfile>(1 + seed % 2);  // ramp or diurnal
    c.driver.loadgen.profile_period_s = 10.0;
    c.driver.loadgen.profile_peak_factor = 4.0;
  }
  return c;
}

TEST(LoadGenProperties, RandomizedSeedsHoldEveryInvariant) {
  constexpr std::uint64_t kSeeds = 200;
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  std::atomic<std::uint64_t> checks_total{0};

  sim::parallel_for(kSeeds, [&](std::size_t index) {
    const std::uint64_t seed = static_cast<std::uint64_t>(index) + 1;
    const PropertyCase c = make_case(seed);
    Platform platform(c.platform);
    const std::size_t offered = c.driver.loadgen.requests;

    // Open-loop runs keep the outcome vector for per-outcome checks;
    // closed-loop runs are validated through the counter identities (the
    // driver consumes the outcomes internally).
    LoadDriverConfig driver = c.driver;
    std::vector<RequestOutcome> outcomes;
    if (driver.loadgen.arrival == sim::ArrivalProcess::kClosedLoop) {
      (void)run_load(platform, driver);
    } else {
      outcomes = platform.run(make_load_stream(driver));
    }

    const auto fail = [&](const std::string& why) {
      const std::lock_guard<std::mutex> lock(failures_mutex);
      failures.push_back("seed " + std::to_string(seed) + ": " + why);
    };

    // Invariant harness: armed (fault-free force_invariants path) and
    // silent.
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

    // Accounting identity over the metrics registry: offered requests
    // are conserved across terminal states.
    const auto counter = [&](const char* name) -> std::uint64_t {
      const obs::Counter* c2 = platform.metrics().find_counter(name);
      return c2 != nullptr ? c2->value() : 0;
    };
    const std::uint64_t completed = counter("sessions.completed");
    const std::uint64_t rejected = counter("sessions.rejected");
    const std::uint64_t local = counter("sessions.local");
    const std::uint64_t stranded = counter("sessions.stranded");
    if (counter("sessions.offered") != offered) {
      fail("offered counter mismatch");
      return;
    }
    if (completed + rejected + local + stranded != offered) {
      fail("accounting identity broken: " + std::to_string(completed) +
           "+" + std::to_string(rejected) + "+" + std::to_string(local) +
           "+" + std::to_string(stranded) +
           " != " + std::to_string(offered));
      return;
    }

    // The same identity must hold class by class, and the per-class
    // ledgers must sum back to the session totals (no request ever
    // changes class between offer and terminal state).
    std::uint64_t class_offered_total = 0;
    for (const qos::PriorityClass klass : qos::kAllClasses) {
      const std::string name = qos::to_string(klass);
      const std::uint64_t class_offered =
          counter(("qos.offered." + name).c_str());
      const std::uint64_t class_terminal =
          counter(("qos.completed." + name).c_str()) +
          counter(("qos.rejected." + name).c_str()) +
          counter(("qos.local." + name).c_str()) +
          counter(("qos.stranded." + name).c_str());
      if (class_offered != class_terminal) {
        fail("per-class accounting identity broken for " + name + ": " +
             std::to_string(class_terminal) +
             " != " + std::to_string(class_offered));
        return;
      }
      class_offered_total += class_offered;
    }
    if (class_offered_total != offered) {
      fail("class ledgers do not sum to sessions.offered: " +
           std::to_string(class_offered_total) +
           " != " + std::to_string(offered));
      return;
    }

    // Admission ledger drained and bounded.
    if (const AdmissionController* adm = platform.admission()) {
      if (adm->in_service() != 0 || adm->queue_depth() != 0) {
        fail("admission ledger not drained: in_service=" +
             std::to_string(adm->in_service()) +
             " queue=" + std::to_string(adm->queue_depth()));
        return;
      }
      if (platform.accept_queue_depth() != 0) {
        fail("accept queue not drained");
        return;
      }
    }

    // Per-outcome exclusivity: rejected XOR executed, reasons typed.
    for (const RequestOutcome& outcome : outcomes) {
      if (outcome.rejected && outcome.reject_reason == RejectReason::kNone) {
        fail("rejected outcome without a reason (seq " +
             std::to_string(outcome.request.sequence) + ")");
        return;
      }
      if (!outcome.rejected &&
          outcome.reject_reason != RejectReason::kNone) {
        fail("completed outcome carries a reject reason (seq " +
             std::to_string(outcome.request.sequence) + ")");
        return;
      }
      if (!outcome.rejected && outcome.phases.computation == 0 &&
          outcome.response == 0) {
        fail("outcome neither rejected nor executed (seq " +
             std::to_string(outcome.request.sequence) + ")");
        return;
      }
    }
  });

  for (const std::string& failure : failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_GT(checks_total.load(), 0u)
      << "the post-event invariant hook never ran";
}

TEST(LoadGenProperties, RejectedPlusCompletedEqualsOfferedUnderPressure) {
  // A deliberately overloaded admission configuration: tiny service
  // ceiling, tiny queue, aggressive tenant limit — most requests must be
  // shed, and every one of them must still be accounted for.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 77;
  config.force_invariants = true;
  config.admission.enabled = true;
  config.admission.max_in_service = 2;
  config.admission.queue_capacity = 3;
  config.admission.tenant_rate_per_s = 2.0;
  Platform platform(std::move(config));

  LoadDriverConfig driver;
  driver.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  driver.loadgen.devices = 20;
  driver.loadgen.requests = 300;
  driver.loadgen.rate_per_s = 100;
  driver.loadgen.seed = 77;
  driver.size_class = 1;
  const auto outcomes = platform.run(make_load_stream(driver));

  ASSERT_EQ(outcomes.size(), 300u);
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t rate_limited = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.rejected) {
      ++rejected;
      EXPECT_NE(outcome.reject_reason, RejectReason::kNone);
      if (outcome.reject_reason == RejectReason::kRateLimited) {
        ++rate_limited;
      }
    } else {
      ++completed;
    }
  }
  EXPECT_EQ(completed + rejected, 300u);
  EXPECT_GT(rejected, 0u) << "overload scenario shed nothing";
  EXPECT_GT(rate_limited, 0u) << "token bucket never tripped";
  EXPECT_TRUE(platform.invariants().ok())
      << platform.invariants().report();
}

TEST(LoadGenProperties, AccountingIdentityChecksEveryTenant) {
  // Balanced in total and per class, so only the per-tenant check can
  // see the gap: tenant "b" lost one rejected request to tenant "a".
  LoadSummary summary;
  summary.offered = 4;
  summary.completed = 2;
  summary.rejected = 2;
  ClassLoadStats& standard = summary.by_class[qos::class_index(
      qos::PriorityClass::kStandard)];
  standard.offered = 4;
  standard.completed = 2;
  standard.rejected = 2;
  summary.by_tenant["a"] = TenantLoadStats{2, 1, 1};
  summary.by_tenant["b"] = TenantLoadStats{2, 1, 1};
  EXPECT_TRUE(accounting_identity(summary));

  summary.by_tenant["a"].rejected = 2;
  summary.by_tenant["b"].rejected = 0;
  EXPECT_FALSE(accounting_identity(summary));

  // Balanced slices that do not add up to the total are a gap too.
  summary.by_tenant["a"] = TenantLoadStats{1, 0, 1};
  summary.by_tenant["b"] = TenantLoadStats{2, 1, 1};
  EXPECT_FALSE(accounting_identity(summary));
}

TEST(LoadGenProperties, GoldenDeterminismMetricsAndTrace) {
  const auto run_once = [](std::uint64_t seed) {
    PlatformConfig config = make_config(PlatformKind::kRattrap);
    config.seed = seed;
    config.admission.enabled = true;
    config.admission.max_in_service = 4;
    config.admission.queue_capacity = 8;
    Platform platform(std::move(config));
    platform.trace().enable();

    LoadDriverConfig driver;
    driver.loadgen.arrival = sim::ArrivalProcess::kClosedLoop;
    driver.loadgen.devices = 12;
    driver.loadgen.requests = 60;
    driver.loadgen.think_time_s = 0.3;
    driver.loadgen.seed = seed;
    driver.size_class = 1;
    (void)run_load(platform, driver);
    return std::make_pair(platform.metrics().to_json(),
                          platform.trace().to_chrome_json());
  };

  const auto [metrics_a, trace_a] = run_once(5);
  const auto [metrics_b, trace_b] = run_once(5);
  EXPECT_EQ(metrics_a, metrics_b) << "metrics JSON not byte-identical";
  EXPECT_EQ(trace_a, trace_b) << "trace JSON not byte-identical";
  EXPECT_FALSE(metrics_a.empty());
  EXPECT_FALSE(trace_a.empty());

  // A different seed must actually change the artifacts (the goldens are
  // not vacuous).
  const auto [metrics_c, trace_c] = run_once(6);
  EXPECT_NE(metrics_a, metrics_c);
  EXPECT_NE(trace_a, trace_c);
}

TEST(LoadGenProperties, MixedClassGoldenDeterminism) {
  // Same seed + same three-class/two-tenant mix => byte-identical
  // metrics and trace JSON; QoS scheduling must stay deterministic.
  const auto run_once = [](std::uint64_t seed) {
    PlatformConfig config = make_config(PlatformKind::kRattrap);
    config.seed = seed;
    config.admission.enabled = true;
    config.admission.qos.enabled = true;
    config.admission.max_in_service = 4;
    config.admission.queue_capacity = 8;
    Platform platform(std::move(config));
    platform.trace().enable();

    LoadDriverConfig driver;
    driver.loadgen.arrival = sim::ArrivalProcess::kClosedLoop;
    driver.loadgen.devices = 12;
    driver.loadgen.requests = 60;
    driver.loadgen.think_time_s = 0.3;
    driver.loadgen.seed = seed;
    driver.loadgen.mix = {
        {"gold", 0, 3, 1.0},    // interactive, weight 3
        {"bronze", 1, 1, 2.0},  // standard
        {"bronze", 2, 1, 1.0},  // batch
    };
    driver.size_class = 1;
    (void)run_load(platform, driver);
    return std::make_pair(platform.metrics().to_json(),
                          platform.trace().to_chrome_json());
  };

  const auto [metrics_a, trace_a] = run_once(9);
  const auto [metrics_b, trace_b] = run_once(9);
  EXPECT_EQ(metrics_a, metrics_b) << "metrics JSON not byte-identical";
  EXPECT_EQ(trace_a, trace_b) << "trace JSON not byte-identical";
  // The mix actually reached the scheduler: every class lane shows up.
  EXPECT_NE(metrics_a.find("qos.offered.interactive"), std::string::npos);
  EXPECT_NE(metrics_a.find("qos.offered.batch"), std::string::npos);

  const auto [metrics_c, trace_c] = run_once(10);
  EXPECT_NE(metrics_a, metrics_c);
  EXPECT_NE(trace_a, trace_c);
}

TEST(LoadGenProperties, RampProfileElasticGoldenDeterminism) {
  // The full elastic loop under a shaped open-loop schedule: MMPP
  // arrivals on the ramp profile, the predictive pool prewarming and
  // draining, lifecycle spans tracing.  Same seed ⇒ byte-identical
  // metrics and trace JSON (docs/ELASTIC.md, docs/LOADGEN.md).
  const auto run_once = [](std::uint64_t seed) {
    PlatformConfig config = make_config(PlatformKind::kRattrap);
    config.seed = seed;
    config.admission.enabled = true;
    config.elastic.mode = elastic::PoolMode::kPredictive;
    config.elastic.min_warm = 1;
    config.elastic.max_warm = 6;
    Platform platform(std::move(config));
    platform.trace().enable();

    LoadDriverConfig driver;
    driver.loadgen.arrival = sim::ArrivalProcess::kMmpp;
    driver.loadgen.devices = 24;
    driver.loadgen.requests = 80;
    driver.loadgen.rate_per_s = 2.0;
    driver.loadgen.profile = sim::RateProfile::kRamp;
    driver.loadgen.profile_period_s = 20.0;
    driver.loadgen.profile_peak_factor = 4.0;
    driver.loadgen.seed = seed;
    driver.size_class = 1;
    (void)run_load(platform, driver);
    EXPECT_TRUE(platform.env_table().first_error().empty())
        << platform.env_table().first_error();
    return std::make_pair(platform.metrics().to_json(),
                          platform.trace().to_chrome_json());
  };

  const auto [metrics_a, trace_a] = run_once(13);
  const auto [metrics_b, trace_b] = run_once(13);
  EXPECT_EQ(metrics_a, metrics_b) << "metrics JSON not byte-identical";
  EXPECT_EQ(trace_a, trace_b) << "trace JSON not byte-identical";
  // The elastic loop actually ran: prewarms and lifecycle gauges exist.
  EXPECT_NE(metrics_a.find("elastic.prewarmed"), std::string::npos);
  EXPECT_NE(metrics_a.find("elastic.target"), std::string::npos);

  const auto [metrics_c, trace_c] = run_once(14);
  EXPECT_NE(metrics_a, metrics_c);
  EXPECT_NE(trace_a, trace_c);
}

TEST(LoadGenProperties, EngineSwapGoldenDeterminism) {
  // The queue/allocator swap must be invisible to every artifact: the
  // same seed + config run on the calendar engine and on the seed
  // binary-heap engine (kept as the reference oracle) must produce
  // byte-identical metrics and trace JSON.  Arms cover flat, ramp and
  // diurnal arrival shaping, each with faults off and on — the fault
  // pump schedules one-shot events and is the likeliest place a tie-break
  // difference between engines would surface.
  // The RAC arms (docs/RAC.md) run an adversary mix with the defense
  // layer armed: block sweeps evict live sessions and lazy unblocks
  // re-key the ledger mid-run, so they too must be engine-invariant.
  struct Arm {
    sim::RateProfile profile;
    bool faults;
    bool rac = false;
  };
  const std::vector<Arm> arms = {
      {sim::RateProfile::kFlat, false},    {sim::RateProfile::kFlat, true},
      {sim::RateProfile::kRamp, false},    {sim::RateProfile::kRamp, true},
      {sim::RateProfile::kDiurnal, false}, {sim::RateProfile::kDiurnal, true},
      {sim::RateProfile::kFlat, false, true},
      {sim::RateProfile::kDiurnal, true, true},
  };

  const auto run_arm = [](const Arm& arm, std::uint64_t seed) {
    PlatformConfig config = make_config(PlatformKind::kRattrap);
    config.seed = seed;
    config.force_invariants = true;
    config.admission.enabled = true;
    config.admission.max_in_service = 3;
    config.admission.queue_capacity = 6;
    if (arm.faults) {
      config.fault_plan = *sim::FaultPlan::parse(
          "net.drop:p=0.05;net.delay:p=0.05;container.crash:at=3");
    }
    if (arm.rac) {
      config.access.violation_threshold = 3;
      config.access.block_duration = sim::from_seconds(2.0);
      config.access.tenant_quota = 3;
      config.admission.tenant_queue_quota = 3;
    }
    Platform platform(std::move(config));
    platform.trace().enable();

    LoadDriverConfig driver;
    driver.loadgen.arrival = sim::ArrivalProcess::kPoisson;
    driver.loadgen.devices = 12;
    driver.loadgen.requests = 60;
    driver.loadgen.rate_per_s = 8.0;
    driver.loadgen.profile = arm.profile;
    driver.loadgen.profile_period_s = 10.0;
    driver.loadgen.profile_peak_factor = 4.0;
    driver.loadgen.seed = seed;
    driver.size_class = 1;
    if (arm.rac) {
      driver.loadgen.mix = {
          {"victim", 0, 2, 1.0, sim::AdversaryProfile::kNone},
          {"prober", 1, 1, 1.0, sim::AdversaryProfile::kPermissionProbe},
          {"thrasher", 2, 1, 1.0, sim::AdversaryProfile::kCacheThrash},
      };
      // The mix carries tenants, so route through the per-mix sessions
      // of the load driver rather than the anonymous platform.run path.
      (void)run_load(platform, driver);
    } else {
      (void)platform.run(make_load_stream(driver));
    }
    EXPECT_TRUE(platform.invariants().ok())
        << platform.invariants().report();
    return std::make_pair(platform.metrics().to_json(),
                          platform.trace().to_chrome_json());
  };

  const sim::EventQueue::Engine saved = sim::EventQueue::default_engine();
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const std::uint64_t seed = 31 + i;
    sim::EventQueue::set_default_engine(sim::EventQueue::Engine::kCalendar);
    const auto [metrics_cal, trace_cal] = run_arm(arms[i], seed);
    sim::EventQueue::set_default_engine(
        sim::EventQueue::Engine::kReferenceHeap);
    const auto [metrics_ref, trace_ref] = run_arm(arms[i], seed);
    sim::EventQueue::set_default_engine(saved);
    EXPECT_EQ(metrics_cal, metrics_ref)
        << "arm " << i << " (" << sim::to_string(arms[i].profile)
        << (arms[i].faults ? ", faults" : ", no faults")
        << "): metrics fingerprint changed across the engine swap";
    EXPECT_EQ(trace_cal, trace_ref)
        << "arm " << i << ": trace changed across the engine swap";
    EXPECT_FALSE(metrics_cal.empty());
  }
  sim::EventQueue::set_default_engine(saved);
}

TEST(LoadGenProperties, TenantWeightsShapeCompletionsUnderSaturation) {
  // Two tenants at 3:1 DRR weight, equal offered load, one service slot:
  // while the admission queue stays saturated, completions must track the
  // weights within 10%.  Only completions before the last arrival count —
  // the drain tail serves both backlogs to exhaustion and would dilute
  // the ratio toward the 1:1 enqueue mix.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 21;
  config.admission.enabled = true;
  config.admission.qos.enabled = true;
  config.admission.max_in_service = 1;  // serialized: the queue decides
  // Deep enough that nothing sheds inside the measurement window: with
  // tail-drop both tenants would be re-admitted 1:1 once full, the gold
  // backlog would run dry, and DRR could no longer express the weights.
  config.admission.queue_capacity = 2048;
  Platform platform(std::move(config));

  LoadDriverConfig driver;
  driver.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  // Sized against the serialized service rate (~2/s after a ~2 s warmup):
  // a 40 s arrival window yields ~85 in-window completions, enough for a
  // 10% ratio check, while 30/s offered load keeps the queue saturated.
  driver.loadgen.devices = 16;
  driver.loadgen.requests = 1200;
  driver.loadgen.rate_per_s = 30;
  driver.loadgen.seed = 21;
  driver.size_class = 1;
  const auto stream = make_load_stream(driver);
  sim::SimTime last_arrival = 0;
  for (const auto& request : stream) {
    last_arrival = std::max(last_arrival, request.arrival);
  }

  SessionConfig gold_config;
  gold_config.tenant = "gold";
  gold_config.tenant_weight = 3;
  SessionConfig bronze_config;
  bronze_config.tenant = "bronze";
  Result<Session> gold_opened = platform.open_session(gold_config);
  Result<Session> bronze_opened = platform.open_session(bronze_config);
  ASSERT_TRUE(gold_opened.ok());
  ASSERT_TRUE(bronze_opened.ok());
  Session gold = std::move(*gold_opened);
  Session bronze = std::move(*bronze_opened);
  for (const auto& request : stream) {
    ((request.sequence % 2 != 0) ? bronze : gold).submit(request);
  }
  const auto gold_outcomes = gold.close();
  const auto bronze_outcomes = bronze.close();

  const auto completed_in_window =
      [&](const std::vector<RequestOutcome>& outcomes) {
        std::size_t count = 0;
        for (const RequestOutcome& outcome : outcomes) {
          if (!outcome.rejected && outcome.completed_at <= last_arrival) {
            ++count;
          }
        }
        return count;
      };
  const double gold_done =
      static_cast<double>(completed_in_window(gold_outcomes));
  const double bronze_done =
      static_cast<double>(completed_in_window(bronze_outcomes));
  ASSERT_GE(bronze_done, 10.0) << "saturation window served too little "
                                  "to measure the ratio";
  const double ratio = gold_done / bronze_done;
  EXPECT_GE(ratio, 2.7) << gold_done << " vs " << bronze_done;
  EXPECT_LE(ratio, 3.3) << gold_done << " vs " << bronze_done;
  // The queue really saturated: a deep standing backlog built up, so the
  // ratio was decided by DRR dequeue order, not by arrival order.
  const obs::Gauge* peak =
      platform.metrics().find_gauge("admission.queue.peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_GE(peak->value(), 100.0);
}

TEST(LoadGenProperties, QueueDepthNeverExceedsBoundMidRun) {
  // Sample the live queue depth from inside the run via the completion
  // observer — a terminal check alone would miss transient overshoot.
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 13;
  config.admission.enabled = true;
  config.admission.max_in_service = 2;
  config.admission.queue_capacity = 4;
  Platform platform(std::move(config));

  LoadDriverConfig driver;
  driver.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  driver.loadgen.devices = 10;
  driver.loadgen.requests = 120;
  driver.loadgen.rate_per_s = 60;
  driver.loadgen.seed = 13;
  driver.size_class = 1;

  std::size_t peak_depth = 0;
  platform.set_completion_observer([&](const RequestOutcome&) {
    peak_depth = std::max(peak_depth, platform.accept_queue_depth());
  });
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  for (const auto& request : make_load_stream(driver)) {
    session->submit(request);
  }
  const auto outcomes = session->close();
  platform.set_completion_observer({});

  EXPECT_EQ(outcomes.size(), 120u);
  EXPECT_LE(peak_depth, 4u);
  const obs::Gauge* peak = platform.metrics().find_gauge(
      "admission.queue.peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_LE(peak->value(), 4.0);
  EXPECT_GT(peak->value(), 0.0) << "queue never filled; bound untested";
}

}  // namespace
}  // namespace rattrap::core
