#include "kernel/binder.hpp"

#include <gtest/gtest.h>

namespace rattrap::kernel {
namespace {

TEST(Binder, ServiceManagerExistsImplicitly) {
  BinderDriver binder;
  EXPECT_EQ(binder.endpoint_count(1), 0u);  // namespace untouched
  binder.create_endpoint(1);
  EXPECT_EQ(binder.endpoint_count(1), 2u);  // service manager + endpoint
}

TEST(Binder, EndpointHandlesAreUniquePerNamespace) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  const BinderHandle b = binder.create_endpoint(1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kServiceManagerHandle);
}

TEST(Binder, RegisterAndLookupService) {
  BinderDriver binder;
  const BinderHandle provider = binder.create_endpoint(1);
  EXPECT_TRUE(binder.register_service(1, "activity", provider));
  const auto found = binder.lookup_service(1, "activity");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, provider);
  EXPECT_FALSE(binder.lookup_service(1, "missing").has_value());
}

TEST(Binder, NamespacesIsolateServices) {
  BinderDriver binder;
  const BinderHandle p1 = binder.create_endpoint(1);
  binder.register_service(1, "activity", p1);
  EXPECT_FALSE(binder.lookup_service(2, "activity").has_value());
  const BinderHandle p2 = binder.create_endpoint(2);
  binder.register_service(2, "activity", p2);
  EXPECT_EQ(*binder.lookup_service(1, "activity"), p1);
  EXPECT_EQ(*binder.lookup_service(2, "activity"), p2);
}

TEST(Binder, TransactSucceedsBetweenLiveEndpoints) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  const BinderHandle b = binder.create_endpoint(1);
  const auto cost = binder.transact(1, a, b, 1024);
  ASSERT_TRUE(cost.has_value());
  EXPECT_GT(*cost, 0);
  const BinderStats stats = binder.stats(1);
  EXPECT_EQ(stats.transactions, 1u);
  EXPECT_EQ(stats.bytes, 1024u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Binder, TransactToDeadEndpointFails) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  const BinderHandle b = binder.create_endpoint(1);
  EXPECT_TRUE(binder.destroy_endpoint(1, b));
  const auto cost = binder.transact(1, a, b, 64);
  EXPECT_FALSE(cost.has_value());
  EXPECT_EQ(binder.stats(1).failed, 1u);
}

TEST(Binder, RegisterFromDeadEndpointFails) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  binder.destroy_endpoint(1, a);
  EXPECT_FALSE(binder.register_service(1, "svc", a));
}

TEST(Binder, DestroyEndpointTwiceFails) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  EXPECT_TRUE(binder.destroy_endpoint(1, a));
  EXPECT_FALSE(binder.destroy_endpoint(1, a));
}

TEST(Binder, TransactionCostGrowsWithPayload) {
  EXPECT_LT(BinderDriver::transaction_cost(64),
            BinderDriver::transaction_cost(1 << 20));
}

TEST(Binder, NamespaceTeardownDropsState) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  binder.register_service(1, "svc", a);
  binder.transact(1, a, a, 10);
  binder.on_namespace_destroyed(1);
  EXPECT_EQ(binder.endpoint_count(1), 0u);
  EXPECT_EQ(binder.stats(1).transactions, 0u);
  EXPECT_FALSE(binder.lookup_service(1, "svc").has_value());
}

TEST(Binder, DeathNotificationFiresOnDestroy) {
  BinderDriver binder;
  const BinderHandle watched = binder.create_endpoint(1);
  int deaths = 0;
  EXPECT_TRUE(binder.link_to_death(1, watched, [&] { ++deaths; }));
  EXPECT_TRUE(binder.link_to_death(1, watched, [&] { ++deaths; }));
  EXPECT_EQ(deaths, 0);
  binder.destroy_endpoint(1, watched);
  EXPECT_EQ(deaths, 2);
}

TEST(Binder, DeathNotificationOnDeadEndpointFiresImmediately) {
  BinderDriver binder;
  const BinderHandle watched = binder.create_endpoint(1);
  binder.destroy_endpoint(1, watched);
  bool fired = false;
  EXPECT_TRUE(binder.link_to_death(1, watched, [&] { fired = true; }));
  EXPECT_TRUE(fired);
}

TEST(Binder, DeathNotificationUnknownHandleFails) {
  BinderDriver binder;
  binder.create_endpoint(1);  // materialize the namespace
  EXPECT_FALSE(binder.link_to_death(1, 99, [] {}));
}

TEST(Binder, DeathNotificationFiresOnce) {
  BinderDriver binder;
  const BinderHandle watched = binder.create_endpoint(1);
  int deaths = 0;
  binder.link_to_death(1, watched, [&] { ++deaths; });
  binder.destroy_endpoint(1, watched);
  binder.destroy_endpoint(1, watched);  // second destroy fails anyway
  EXPECT_EQ(deaths, 1);
}

TEST(BinderOneway, QueuesWithoutReply) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  const BinderHandle b = binder.create_endpoint(1);
  const auto oneway = binder.transact_oneway(1, a, b, 1024);
  ASSERT_TRUE(oneway.has_value());
  EXPECT_EQ(binder.async_pending(1, b), 1024u);
  // One-way costs one copy; synchronous costs two.
  const auto sync = binder.transact(1, a, b, 1024);
  ASSERT_TRUE(sync.has_value());
  EXPECT_EQ(*sync, 2 * *oneway);
}

TEST(BinderOneway, DrainConsumesQueuedBytes) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  const BinderHandle b = binder.create_endpoint(1);
  binder.transact_oneway(1, a, b, 100);
  binder.transact_oneway(1, a, b, 200);
  EXPECT_EQ(binder.drain_async(1, b), 300u);
  EXPECT_EQ(binder.async_pending(1, b), 0u);
  EXPECT_EQ(binder.drain_async(1, b), 0u);
}

TEST(BinderOneway, AsyncBufferIsBounded) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  const BinderHandle b = binder.create_endpoint(1);
  ASSERT_TRUE(
      binder.transact_oneway(1, a, b, BinderDriver::kAsyncBufferBytes)
          .has_value());
  // The buffer is full: the next one-way transaction fails.
  EXPECT_FALSE(binder.transact_oneway(1, a, b, 1).has_value());
  EXPECT_EQ(binder.stats(1).failed, 1u);
  // Draining makes room again.
  binder.drain_async(1, b);
  EXPECT_TRUE(binder.transact_oneway(1, a, b, 1).has_value());
}

TEST(BinderOneway, DeadTargetFails) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  const BinderHandle b = binder.create_endpoint(1);
  binder.destroy_endpoint(1, b);
  EXPECT_FALSE(binder.transact_oneway(1, a, b, 10).has_value());
}

TEST(Binder, ServiceNamesSorted) {
  BinderDriver binder;
  const BinderHandle a = binder.create_endpoint(1);
  binder.register_service(1, "zeta", a);
  binder.register_service(1, "alpha", a);
  const auto names = binder.service_names(1);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

// -- Template namespaces --------------------------------------------------

/// A binder whose namespace 1 is a booted template: system_server
/// (endpoint 1) provides a two-service table.
BinderDriver& booted_template(BinderDriver& binder) {
  binder.register_services(1, make_service_table({"activity", "package"}),
                           binder.create_endpoint(1));
  return binder;
}

TEST(BinderShadow, ShadowReadsTheTemplateUntilItWrites) {
  BinderDriver binder;
  booted_template(binder);
  binder.on_namespace_created(2, 1);
  EXPECT_EQ(binder.endpoint_count(2), 2u);
  EXPECT_EQ(binder.lookup_service(2, "package"), BinderHandle{1});
  EXPECT_EQ(binder.service_names(2), binder.service_names(1));
  // Transactions only count: the shadow keeps reading the template.
  ASSERT_TRUE(binder.transact(2, 0, 1, 64).has_value());
  EXPECT_EQ(binder.stats(2).transactions, 1u);
  EXPECT_EQ(binder.stats(1).transactions, 0u);
  EXPECT_EQ(binder.context_count(), 1u);
  // The first write copies the template into a context of its own.
  const BinderHandle own = binder.create_endpoint(2);
  EXPECT_EQ(own, 2u);
  EXPECT_EQ(binder.context_count(), 2u);
  ASSERT_TRUE(binder.register_service(2, "package", own));
  EXPECT_EQ(binder.lookup_service(2, "package"), own);
  EXPECT_EQ(binder.lookup_service(1, "package"), BinderHandle{1});
  EXPECT_EQ(binder.endpoint_count(1), 2u);
  EXPECT_EQ(binder.stats(2).transactions, 1u);  // counters survive the copy
}

TEST(BinderShadow, DestroyingAShadowLeavesTheTemplate) {
  BinderDriver binder;
  booted_template(binder);
  binder.on_namespace_created(2, 1);
  binder.on_namespace_created(3, 1);
  binder.destroy_endpoint(3, 1);  // copy-on-write: only 3 loses it
  EXPECT_EQ(binder.endpoint_count(3), 1u);
  EXPECT_EQ(binder.endpoint_count(2), 2u);
  binder.on_namespace_destroyed(2);
  binder.on_namespace_destroyed(3);
  EXPECT_EQ(binder.namespace_count(), 1u);
  EXPECT_EQ(binder.endpoint_count(1), 2u);
  EXPECT_EQ(binder.endpoint_count(2), 0u);
  // A shadow outlives its template's teardown with the state it read.
  binder.on_namespace_created(4, 1);
  binder.on_namespace_destroyed(1);
  EXPECT_EQ(binder.lookup_service(4, "activity"), BinderHandle{1});
}

TEST(BinderShadow, TemplateWritesDoNotReachItsShadows) {
  BinderDriver binder;
  booted_template(binder);
  binder.on_namespace_created(2, 1);
  const BinderHandle late = binder.create_endpoint(1);
  ASSERT_TRUE(binder.register_service(1, "late", late));
  EXPECT_EQ(binder.endpoint_count(1), 3u);
  EXPECT_EQ(binder.endpoint_count(2), 2u);
  EXPECT_FALSE(binder.lookup_service(2, "late").has_value());
}

TEST(BinderShadow, UnknownOrHostBaseStartsEmpty) {
  BinderDriver binder;
  binder.on_namespace_created(2, kHostDevNs);
  binder.on_namespace_created(3, 9);
  EXPECT_EQ(binder.namespace_count(), 0u);
  EXPECT_EQ(binder.endpoint_count(3), 0u);
  // Implicit service manager on first use, as for any namespace.
  EXPECT_TRUE(binder.transact(3, 0, 0, 8).has_value());
  EXPECT_EQ(binder.endpoint_count(3), 1u);
}

}  // namespace
}  // namespace rattrap::kernel
