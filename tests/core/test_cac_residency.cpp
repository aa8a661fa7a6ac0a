// CAC residency: what a provision leaves behind in the kernel, container
// and binder layers is bounded by the CACs alive, not by how many were
// ever provisioned.  Every request of the stream comes from a new device
// and environments idle out after 10 s, so the run is a steady churn of
// provision → offload → reclaim; one container crashes and one
// device-namespace create is torn down by injection on the way.  The
// environment table itself holds a record only while its environment is
// live or a session is still bound to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "container/runtime.hpp"
#include "core/load_driver.hpp"
#include "core/platform.hpp"
#include "kernel/android_container_driver.hpp"

namespace rattrap::core {
namespace {

/// Per-layer residency, sampled at one instant.
struct Residency {
  std::size_t live_envs = 0;
  std::size_t containers = 0;
  std::size_t cgroups = 0;
  std::size_t device_namespaces = 0;
  std::size_t binder_namespaces = 0;
  std::size_t binder_contexts = 0;
  std::size_t pid_entries = 0;
  std::size_t held_records = 0;  ///< records the env table holds
  std::size_t dead_bound = 0;    ///< held reclaimed records a session pins
};

Residency sample(Platform& platform) {
  CloudServer& server = platform.server();
  container::ContainerRuntime& runtime = server.containers();
  Residency r;
  r.live_envs = platform.env_table().live_count();
  r.containers = runtime.count();
  r.cgroups = runtime.cgroups().count();
  r.device_namespaces = server.kernel().device_namespaces().count();
  r.binder_namespaces = server.driver().binder().namespace_count();
  r.binder_contexts = server.driver().binder().context_count();
  for (const container::ContainerId id : runtime.ids()) {
    r.pid_entries += runtime.find(id)->processes().count();
  }
  for (const EnvRecord& rec : platform.env_table().records()) {
    ++r.held_records;
    if (!rec.live() && rec.inflight > 0) ++r.dead_bound;
  }
  return r;
}

/// The bound: one of each per live CAC, plus the template's device
/// namespace and booted binder context.
void expect_bounded(const Residency& r) {
  EXPECT_EQ(r.containers, r.live_envs);
  EXPECT_EQ(r.cgroups, r.live_envs);
  EXPECT_LE(r.device_namespaces, r.live_envs + 1);
  EXPECT_LE(r.binder_namespaces, r.live_envs + 1);
  EXPECT_LE(r.binder_contexts, r.live_envs + 1);
  EXPECT_LE(r.pid_entries, 5 * r.live_envs);
  EXPECT_LE(r.held_records, r.live_envs + r.dead_bound);
}

TEST(CacResidency, ProvisionReclaimChurnStaysBoundedByLiveCacs) {
  constexpr std::size_t kSessions = 2000;
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.seed = 5;
  config.env_idle_timeout = 10 * sim::kSecond;
  const auto plan = sim::FaultPlan::parse(
      "container.crash:at=40;devns.teardown:p=1,after=20,max=1");
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;
  config.crash_recovery = true;

  LoadDriverConfig load;
  load.kind = workloads::Kind::kLinpack;
  load.loadgen.arrival = sim::ArrivalProcess::kPoisson;
  load.loadgen.seed = 5;
  load.loadgen.rate_per_s = 20;
  load.loadgen.devices = kSessions;
  load.loadgen.requests = kSessions;
  std::vector<workloads::OffloadRequest> stream = make_load_stream(load);
  for (workloads::OffloadRequest& request : stream) {
    request.device_id = static_cast<std::uint32_t>(request.sequence);
  }

  Platform platform(config);
  std::size_t samples = 0;
  std::size_t peak_live = 0;
  platform.set_completion_observer([&](const RequestOutcome&) {
    const Residency r = sample(platform);
    peak_live = std::max(peak_live, r.live_envs);
    if (++samples % 50 == 0) expect_bounded(r);
  });
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  for (const auto& request : stream) session->submit(request);
  (void)session->close();

  const obs::Counter* crashes = platform.metrics().find_counter("env.crashes");
  const obs::Counter* failed =
      platform.metrics().find_counter("env.provision_failed");
  ASSERT_NE(crashes, nullptr);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(crashes->value(), 1u);
  EXPECT_EQ(failed->value(), 1u);
  EXPECT_GE(platform.env_table().size(), kSessions);
  // Far fewer CACs were ever alive at once than were provisioned.
  EXPECT_LT(peak_live * 4, kSessions);
  EXPECT_EQ(samples, kSessions);

  // Idle reclaim ran to the end: nothing is left but the template.
  const Residency end = sample(platform);
  EXPECT_EQ(end.live_envs, 0u);
  expect_bounded(end);
  EXPECT_EQ(end.device_namespaces, 1u);
  EXPECT_EQ(end.binder_namespaces, 1u);
  EXPECT_EQ(end.binder_contexts, 1u);
  EXPECT_EQ(end.held_records, 0u);
}

}  // namespace
}  // namespace rattrap::core
