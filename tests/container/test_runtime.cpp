// ContainerRuntime backfill: the lxc-* command surface that PR 1's crash
// machinery builds on — lifecycle bookkeeping, the crash() reaping path,
// and cgroup/namespace cleanup parity between clean and abrupt death.
#include "container/runtime.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "container/container.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace rattrap::container {
namespace {

std::shared_ptr<fs::Layer> system_layer() {
  auto layer = std::make_shared<fs::Layer>("system");
  layer->put_file("/system/framework/core.jar", 1 << 20);
  return layer;
}

class RuntimeTest : public ::testing::Test {
 protected:
  ContainerConfig basic_config(std::string name) {
    ContainerConfig config;
    config.name = std::move(name);
    config.lower_layers = {system_layer()};
    config.memory_limit = 128ull << 20;
    return config;
  }

  Container& started(std::string name) {
    Container& c = runtime_.create(basic_config(std::move(name)));
    EXPECT_TRUE(runtime_.start(c.id()).has_value());
    return c;
  }

  sim::Simulator simulator_;
  kernel::HostKernel kernel_{simulator_};
  ContainerRuntime runtime_{kernel_};
};

TEST_F(RuntimeTest, IdsAreSequentialAndFindable) {
  Container& a = runtime_.create(basic_config("a"));
  Container& b = runtime_.create(basic_config("b"));
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(runtime_.find(a.id()), &a);
  EXPECT_EQ(runtime_.find(b.id()), &b);
  EXPECT_EQ(runtime_.find(9999), nullptr);
  EXPECT_EQ(runtime_.ids().size(), 2u);
}

TEST_F(RuntimeTest, RunningCountTracksLifecycle) {
  Container& a = started("a");
  Container& b = started("b");
  EXPECT_EQ(runtime_.running_count(), 2u);
  runtime_.stop(a.id());
  EXPECT_EQ(runtime_.running_count(), 1u);
  runtime_.stop(b.id());
  EXPECT_EQ(runtime_.running_count(), 0u);
  EXPECT_EQ(runtime_.count(), 2u);  // stopped, not destroyed
}

TEST_F(RuntimeTest, CrashKillsARunningContainer) {
  Container& c = started("victim");
  EXPECT_EQ(c.state(), ContainerState::kRunning);
  EXPECT_TRUE(runtime_.crash(c.id()));
  EXPECT_EQ(c.state(), ContainerState::kStopped);
  EXPECT_EQ(runtime_.running_count(), 0u);
  EXPECT_EQ(runtime_.crash_count(), 1u);
}

TEST_F(RuntimeTest, CrashRefusesAbsentOrNotRunning) {
  EXPECT_FALSE(runtime_.crash(42));  // no such container
  Container& c = runtime_.create(basic_config("created-only"));
  EXPECT_FALSE(runtime_.crash(c.id()));  // never started
  Container& d = started("d");
  runtime_.stop(d.id());
  EXPECT_FALSE(runtime_.crash(d.id()));  // already stopped
  EXPECT_EQ(runtime_.crash_count(), 0u);
}

TEST_F(RuntimeTest, CrashReapsLikeACleanStop) {
  // The kernel reclaims namespaces and memory charges no matter how the
  // processes died: after a crash the device namespace is dead and the
  // cgroup charge is gone, exactly as after stop().
  Container& c = started("reaped");
  const kernel::DevNsId ns = c.devns();
  EXPECT_TRUE(kernel_.device_namespaces().alive(ns));
  EXPECT_GT(runtime_.cgroups().total_memory_usage(), 0u);
  EXPECT_TRUE(runtime_.crash(c.id()));
  EXPECT_FALSE(kernel_.device_namespaces().alive(ns));
  EXPECT_EQ(runtime_.cgroups().total_memory_usage(), 0u);
}

TEST_F(RuntimeTest, CrashedContainerCanRestart) {
  Container& c = started("phoenix");
  EXPECT_TRUE(runtime_.crash(c.id()));
  const auto cost = runtime_.start(c.id());
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(c.state(), ContainerState::kRunning);
  EXPECT_EQ(runtime_.running_count(), 1u);
}

TEST_F(RuntimeTest, DestroyAfterCrashRemovesContainer) {
  Container& c = started("gone");
  const ContainerId id = c.id();
  EXPECT_TRUE(runtime_.crash(id));
  EXPECT_TRUE(runtime_.destroy(id));
  EXPECT_EQ(runtime_.find(id), nullptr);
  EXPECT_EQ(runtime_.count(), 0u);
}

TEST_F(RuntimeTest, InjectedDevNsTeardownFailsStart) {
  // A device-namespace teardown racing container start makes start()
  // fail cleanly: no leaked cgroup charge, container still kCreated-able.
  auto plan = sim::FaultPlan::parse("devns.teardown:p=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector faults(*plan, /*seed=*/7);
  kernel_.device_namespaces().set_fault_injector(&faults);
  Container& c = runtime_.create(basic_config("unlucky"));
  EXPECT_FALSE(runtime_.start(c.id()).has_value());
  EXPECT_NE(c.state(), ContainerState::kRunning);
  EXPECT_EQ(runtime_.cgroups().total_memory_usage(), 0u);
  // Clear skies: the same container starts fine.
  kernel_.device_namespaces().set_fault_injector(nullptr);
  EXPECT_TRUE(runtime_.start(c.id()).has_value());
}

TEST_F(RuntimeTest, DestroyHandsTheCgroupBack) {
  Container& a = started("a");
  started("b");
  EXPECT_EQ(runtime_.cgroups().count(), 2u);
  EXPECT_TRUE(runtime_.destroy(a.id()));
  EXPECT_EQ(runtime_.cgroups().count(), 1u);
  EXPECT_EQ(runtime_.cgroups().find("a"), nullptr);
  EXPECT_EQ(runtime_.count(), 1u);
  EXPECT_EQ(kernel_.device_namespaces().count(), 1u);
}

TEST_F(RuntimeTest, ClonesShareOneConfig) {
  const auto image =
      std::make_shared<const ContainerConfig>(basic_config("image"));
  Container& a = runtime_.create(image, "clone-1");
  Container& b = runtime_.create(image, "clone-2");
  EXPECT_EQ(a.name(), "clone-1");
  EXPECT_EQ(b.name(), "clone-2");
  EXPECT_EQ(&a.config(), &b.config());
  ASSERT_TRUE(runtime_.start(a.id()).has_value());
  ASSERT_TRUE(runtime_.start(b.id()).has_value());
  EXPECT_NE(runtime_.cgroups().find("clone-1"), nullptr);
  EXPECT_EQ(b.namespaces().uts.hostname, "clone-2");
}

TEST_F(RuntimeTest, FeatureCheckFollowsTheKernel) {
  // Clones of one image check its features once, until the kernel's
  // features change.
  ContainerConfig config = basic_config("image");
  config.required_features = {"needs_me"};
  const auto image = std::make_shared<const ContainerConfig>(config);
  kernel_.add_feature("needs_me");
  EXPECT_TRUE(runtime_.start(runtime_.create(image, "a").id()).has_value());
  kernel_.remove_feature("needs_me");
  EXPECT_FALSE(runtime_.start(runtime_.create(image, "b").id()).has_value());
}

}  // namespace
}  // namespace rattrap::container
