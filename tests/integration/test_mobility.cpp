// Device mobility (docs/LOADGEN.md): mid-run WiFi↔3G/4G handoffs with
// per-radio cost models, disconnect/reconnect outages, and session
// resumption through the Session API.  The properties the experiment
// matrix gates on: handoffs split completed requests into per-radio
// slices whose phase costs reflect each radio, outages stall-and-resume
// instead of rejecting, and the accounting identity survives all of it.
#include <gtest/gtest.h>

#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "net/link.hpp"

namespace rattrap::core {
namespace {

LoadDriverConfig small_load(std::size_t requests = 200,
                            std::uint64_t seed = 11) {
  LoadDriverConfig driver;
  driver.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  driver.loadgen.devices = 30;
  driver.loadgen.requests = requests;
  driver.loadgen.rate_per_s = 40;
  driver.loadgen.seed = seed;
  return driver;
}

PlatformConfig mobility_config(std::vector<HandoffEvent> plan,
                               std::uint64_t seed = 11) {
  PlatformConfig config = make_config(PlatformKind::kRattrap,
                                      net::lan_wifi(), seed);
  config.mobility = std::move(plan);
  config.force_invariants = true;
  return config;
}

void expect_accounting_identity(const LoadSummary& summary) {
  EXPECT_EQ(summary.offered, summary.completed + summary.rejected);
  std::size_t class_offered = 0;
  for (const qos::PriorityClass klass : qos::kAllClasses) {
    const ClassLoadStats& stats = summary.for_class(klass);
    EXPECT_EQ(stats.offered, stats.completed + stats.rejected);
    class_offered += stats.offered;
  }
  EXPECT_EQ(class_offered, summary.offered);
}

TEST(Mobility, HandoffSplitsCompletionsIntoPerRadioSlices) {
  // Handoff well after the ~2 s env cold-boot so both radios see
  // completions (arrivals span ~5 s at 40 req/s).
  Platform platform(mobility_config(
      {{sim::from_seconds(3.5), net::cellular_3g(), sim::kSecond}}));
  const LoadSummary summary = run_load(platform, small_load());

  expect_accounting_identity(summary);
  EXPECT_EQ(summary.rejected, 0u);  // outages resume, they never reject
  ASSERT_EQ(summary.by_radio.size(), 2u);
  ASSERT_TRUE(summary.by_radio.count("LAN"));
  ASSERT_TRUE(summary.by_radio.count("3G"));
  const RadioLoadStats& lan = summary.by_radio.at("LAN");
  const RadioLoadStats& cell = summary.by_radio.at("3G");
  EXPECT_GT(lan.completed, 0u);
  EXPECT_GT(cell.completed, 0u);
  EXPECT_EQ(lan.completed + cell.completed, summary.completed);
  // Per-radio cost models must be visible in the phase costs: 3G is
  // orders of magnitude slower and hungrier than LAN WiFi.
  EXPECT_GT(cell.mean_transfer_ms, 2 * lan.mean_transfer_ms);
  EXPECT_GT(cell.mean_energy_mj, 2 * lan.mean_energy_mj);
  // The handoff pump counted exactly one swap.
  const obs::Counter* handoffs =
      platform.metrics().find_counter("mobility.handoffs");
  ASSERT_NE(handoffs, nullptr);
  EXPECT_EQ(handoffs->value(), 1u);
  EXPECT_TRUE(platform.invariants().ok()) << platform.invariants().report();
}

TEST(Mobility, OutageStallsAndResumesSessions) {
  Platform platform(mobility_config(
      {{sim::from_seconds(2.0), net::cellular_4g(),
        2 * sim::kSecond}}));
  const LoadSummary summary = run_load(platform, small_load());

  expect_accounting_identity(summary);
  EXPECT_EQ(summary.rejected, 0u);
  // Sessions in flight at the outage resumed rather than failing; the
  // outcome-level flag and the platform counter must agree.
  EXPECT_GT(summary.resumed, 0u);
  const obs::Counter* resumed =
      platform.metrics().find_counter("mobility.sessions_resumed");
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->value(), summary.resumed);
  const obs::Counter* outages =
      platform.metrics().find_counter("mobility.outages");
  ASSERT_NE(outages, nullptr);
  EXPECT_EQ(outages->value(), 1u);
  EXPECT_TRUE(platform.invariants().ok()) << platform.invariants().report();
}

TEST(Mobility, OutcomesRecordTheRadioAtCompletion) {
  Platform platform(mobility_config(
      {{sim::from_seconds(3.0), net::cellular_3g(), 0}}));
  Result<Session> opened = platform.open_session();
  ASSERT_TRUE(opened.ok());
  Session session = std::move(*opened);
  for (const workloads::OffloadRequest& request :
       make_load_stream(small_load())) {
    session.submit(request);
  }
  const auto outcomes = session.close();
  ASSERT_EQ(outcomes.size(), 200u);
  bool saw_lan = false;
  bool saw_3g = false;
  for (const RequestOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.radio.empty());
    saw_lan = saw_lan || outcome.radio == "LAN";
    saw_3g = saw_3g || outcome.radio == "3G";
  }
  EXPECT_TRUE(saw_lan);
  EXPECT_TRUE(saw_3g);
}

TEST(Mobility, MultipleHandoffsReplayPerRun) {
  // WiFi → 4G → back: the mobility plan is per-run state, so a second
  // run on the same platform replays it identically from the base link.
  const std::vector<HandoffEvent> plan = {
      {sim::from_seconds(1.5), net::cellular_4g(), sim::kSecond / 2},
      {sim::from_seconds(3.5), net::lan_wifi(), sim::kSecond / 2},
  };
  Platform platform(mobility_config(plan));
  const LoadSummary first = run_load(platform, small_load(150));
  const LoadSummary second = run_load(platform, small_load(150));

  expect_accounting_identity(first);
  expect_accounting_identity(second);
  const obs::Counter* handoffs =
      platform.metrics().find_counter("mobility.handoffs");
  ASSERT_NE(handoffs, nullptr);
  EXPECT_EQ(handoffs->value(), 4u);  // two per run, both runs
  // Both runs see both radios — the second run started back on WiFi.
  EXPECT_GE(first.by_radio.size(), 2u);
  EXPECT_GE(second.by_radio.size(), 2u);
}

TEST(Mobility, HandoffRunsAreDeterministic) {
  const std::vector<HandoffEvent> plan = {
      {sim::from_seconds(2.0), net::cellular_3g(), sim::kSecond}};
  Platform a(mobility_config(plan, 77));
  Platform b(mobility_config(plan, 77));
  const LoadSummary first = run_load(a, small_load(150, 77));
  const LoadSummary second = run_load(b, small_load(150, 77));
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.resumed, second.resumed);
  EXPECT_DOUBLE_EQ(first.p99_ms, second.p99_ms);
  EXPECT_EQ(a.metrics().to_json(), b.metrics().to_json());
}

TEST(Mobility, ConfigStaysAsConstructed) {
  // Handoffs change the link's radio, and a provision probe is exempt
  // from reclaim without touching the idle timeout: config() keeps
  // reporting what the caller passed.
  const PlatformConfig input = mobility_config(
      {{sim::from_seconds(2.0), net::cellular_3g(), sim::kSecond}});
  Platform handed_off(input);
  (void)run_load(handed_off, small_load(80));
  EXPECT_EQ(handed_off.radio_profile().name, device::radio_3g().name);
  EXPECT_EQ(handed_off.config().link.name, input.link.name);
  EXPECT_EQ(handed_off.config().link.rtt, input.link.rtt);

  Platform probed(input);
  EXPECT_GT(probed.measure_provision().setup_time, 0);
  EXPECT_EQ(probed.config().env_idle_timeout, input.env_idle_timeout);
  EXPECT_EQ(probed.config().link.name, input.link.name);
}

TEST(Mobility, NoMobilityPlanKeepsSingleRadio) {
  Platform platform(mobility_config({}));
  const LoadSummary summary = run_load(platform, small_load(80));
  expect_accounting_identity(summary);
  ASSERT_EQ(summary.by_radio.size(), 1u);
  EXPECT_TRUE(summary.by_radio.count("LAN"));
  EXPECT_EQ(summary.resumed, 0u);
  EXPECT_EQ(platform.metrics().find_counter("mobility.handoffs"), nullptr);
}

}  // namespace
}  // namespace rattrap::core
