#include "kernel/devns.hpp"

#include <gtest/gtest.h>

#include "kernel/binder.hpp"
#include "kernel/logger.hpp"

namespace rattrap::kernel {
namespace {

TEST(DeviceNamespaces, IdsAreUniqueAndNonZero) {
  DeviceRegistry registry;
  DeviceNamespaceManager manager(registry);
  const DevNsId a = manager.create();
  const DevNsId b = manager.create();
  EXPECT_NE(a, kHostDevNs);
  EXPECT_NE(b, kHostDevNs);
  EXPECT_NE(a, b);
  EXPECT_EQ(manager.count(), 2u);
}

TEST(DeviceNamespaces, DestroyRemovesFromActiveSet) {
  DeviceRegistry registry;
  DeviceNamespaceManager manager(registry);
  const DevNsId ns = manager.create();
  EXPECT_TRUE(manager.alive(ns));
  EXPECT_TRUE(manager.destroy(ns));
  EXPECT_FALSE(manager.alive(ns));
  EXPECT_FALSE(manager.destroy(ns));  // double destroy
}

TEST(DeviceNamespaces, DestroyBroadcastsToDrivers) {
  DeviceRegistry registry;
  BinderDriver binder;
  LoggerDriver logger;
  registry.add(&binder);
  registry.add(&logger);
  DeviceNamespaceManager manager(registry);
  const DevNsId ns = manager.create();
  binder.create_endpoint(ns);
  logger.write(ns, "t", 64);
  manager.destroy(ns);
  EXPECT_EQ(binder.endpoint_count(ns), 0u);
  EXPECT_EQ(logger.used_bytes(ns), 0u);
}

TEST(DeviceNamespaces, CreatedTotalIsMonotonic) {
  DeviceRegistry registry;
  DeviceNamespaceManager manager(registry);
  manager.create();
  const DevNsId b = manager.create();
  manager.destroy(b);
  manager.create();
  EXPECT_EQ(manager.created_total(), 3u);
  EXPECT_EQ(manager.count(), 2u);
}

TEST(DeviceNamespaces, CreateOverATemplateShadowsItsDriverState) {
  DeviceRegistry registry;
  BinderDriver binder;
  registry.add(&binder);
  DeviceNamespaceManager manager(registry);
  const DevNsId base = manager.create_template();
  binder.register_services(base, make_service_table({"activity"}),
                           binder.create_endpoint(base));
  const DevNsId ns = manager.create(base);
  EXPECT_EQ(binder.lookup_service(ns, "activity"), BinderHandle{1});
  EXPECT_TRUE(manager.destroy(ns));
  EXPECT_EQ(binder.namespace_count(), 1u);  // the template's
  EXPECT_EQ(manager.count(), 1u);
}

TEST(DeviceNamespaces, TemplateCreationConsultsNoFaults) {
  DeviceRegistry registry;
  DeviceNamespaceManager manager(registry);
  const auto plan = sim::FaultPlan::parse("devns.teardown:p=1");
  ASSERT_TRUE(plan.has_value());
  sim::FaultInjector faults(*plan, /*seed=*/1);
  manager.set_fault_injector(&faults);
  const DevNsId base = manager.create_template();
  EXPECT_TRUE(manager.alive(base));
  EXPECT_EQ(faults.consults(sim::FaultKind::kDevNsTeardown), 0u);
  EXPECT_FALSE(manager.alive(manager.create(base)));
  EXPECT_EQ(faults.consults(sim::FaultKind::kDevNsTeardown), 1u);
  EXPECT_EQ(manager.injected_teardowns(), 1u);
}

TEST(DeviceRegistry, AddFindRemove) {
  DeviceRegistry registry;
  BinderDriver binder;
  EXPECT_TRUE(registry.add(&binder));
  EXPECT_FALSE(registry.add(&binder));  // path taken
  EXPECT_EQ(registry.find("/dev/binder"), &binder);
  EXPECT_EQ(registry.find("/dev/nope"), nullptr);
  EXPECT_TRUE(registry.remove("/dev/binder"));
  EXPECT_FALSE(registry.remove("/dev/binder"));
  EXPECT_EQ(registry.count(), 0u);
}

}  // namespace
}  // namespace rattrap::kernel
