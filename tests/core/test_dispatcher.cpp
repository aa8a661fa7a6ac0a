#include "core/dispatcher.hpp"

#include <gtest/gtest.h>

namespace rattrap::core {
namespace {

workloads::OffloadRequest request_from_device(std::uint32_t device) {
  workloads::OffloadRequest request;
  request.device_id = device;
  return request;
}

class DispatcherTest : public ::testing::Test {
 protected:
  /// Adds an environment bound to `key`, booted into `state` at t=10.
  EnvRecord& add_env(std::string key,
                     EnvState state = EnvState::kWarmIdle) {
    EnvRecord& record =
        envs_.add(EnvBacking::kContainer, std::move(key), 0);
    envs_.transition(record.id, EnvState::kBooting, 0);
    if (state != EnvState::kBooting) {
      record.ready_at = 10;
      envs_.transition(record.id, state, 10);
    }
    return record;
  }

  EnvTable envs_;
  AppWarehouse warehouse_;
};

TEST_F(DispatcherTest, BindingKeyIsPerDevice) {
  Dispatcher with_affinity(envs_, warehouse_, true);
  Dispatcher without(envs_, warehouse_, false);
  const auto request = request_from_device(2);
  EXPECT_EQ(with_affinity.binding_key(request), "dev:2");
  EXPECT_EQ(without.binding_key(request), "dev:2");
}

TEST_F(DispatcherTest, NoAffinityRoutesToDeviceEnv) {
  Dispatcher dispatcher(envs_, warehouse_, false);
  EXPECT_EQ(dispatcher.assign(request_from_device(0), "app", 0), nullptr);
  envs_.add(EnvBacking::kVm, "dev:0", 0);
  EnvRecord* assigned = dispatcher.assign(request_from_device(0), "app", 0);
  ASSERT_NE(assigned, nullptr);
  EXPECT_EQ(assigned->id, 1u);
}

TEST_F(DispatcherTest, FirstRequestOfDeviceProvisionsEvenWithAffinity) {
  Dispatcher dispatcher(envs_, warehouse_, true);
  // Another device's container already ran this app...
  add_env("dev:1");
  warehouse_.store("ref:app", 100);
  warehouse_.record_execution("ref:app", 1);
  // ...but device 0 has no environment yet: it must boot its own.
  EXPECT_EQ(dispatcher.assign(request_from_device(0), "app", 100), nullptr);
}

TEST_F(DispatcherTest, AffinityReroutesToAppHotContainer) {
  Dispatcher dispatcher(envs_, warehouse_, true);
  add_env("dev:0");
  add_env("dev:1");
  warehouse_.store("ref:app", 100);
  warehouse_.record_execution("ref:app", 2);
  EnvRecord* assigned = dispatcher.assign(request_from_device(0), "app", 100);
  ASSERT_NE(assigned, nullptr);
  EXPECT_EQ(assigned->id, 2u);  // rerouted to the code-hot container
}

TEST_F(DispatcherTest, BackloggedHotContainerIsAvoided) {
  Dispatcher dispatcher(envs_, warehouse_, true);
  add_env("dev:0");
  EnvRecord& hot = add_env("dev:1", EnvState::kLeased);
  hot.busy_until = 100 * sim::kSecond;  // deep backlog
  warehouse_.store("ref:app", 100);
  warehouse_.record_execution("ref:app", 2);
  EnvRecord* assigned = dispatcher.assign(request_from_device(0), "app",
                                          sim::kSecond);
  ASSERT_NE(assigned, nullptr);
  EXPECT_EQ(assigned->id, 1u);  // scheduler spreads the load
}

TEST_F(DispatcherTest, RetiredHotContainerIsSkipped) {
  Dispatcher dispatcher(envs_, warehouse_, true);
  add_env("dev:0");
  add_env("dev:1");
  warehouse_.store("ref:app", 100);
  warehouse_.record_execution("ref:app", 2);
  envs_.transition(2, EnvState::kReclaimed, 20);
  EnvRecord* assigned = dispatcher.assign(request_from_device(0), "app", 100);
  ASSERT_NE(assigned, nullptr);
  EXPECT_EQ(assigned->id, 1u);
}

TEST_F(DispatcherTest, ProvisioningHotContainerNotRerouted) {
  Dispatcher dispatcher(envs_, warehouse_, true);
  add_env("dev:0");
  add_env("dev:1", EnvState::kBooting);  // not registered yet
  warehouse_.store("ref:app", 100);
  warehouse_.record_execution("ref:app", 2);
  EnvRecord* assigned = dispatcher.assign(request_from_device(0), "app", 100);
  ASSERT_NE(assigned, nullptr);
  EXPECT_EQ(assigned->id, 1u);
}

}  // namespace
}  // namespace rattrap::core
