#include "core/cac.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "android/image_profile.hpp"
#include "container/registry.hpp"
#include "core/platform.hpp"
#include "platform_test_peer.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"

namespace rattrap::core {
namespace {

std::vector<std::string> names_of(
    const std::vector<android::ServiceSpec>& services) {
  std::vector<std::string> names;
  for (const auto& spec : services) names.push_back(spec.name);
  std::sort(names.begin(), names.end());
  return names;
}

class CacTest : public ::testing::Test {
 protected:
  CacConfig shared_config(std::string name) {
    CacConfig config;
    config.name = std::move(name);
    config.profile = android::OsProfile::kCustomized;
    config.lower_layers = {android::customized_layer()};
    return config;
  }

  sim::Simulator simulator_;
  kernel::HostKernel kernel_{simulator_};
  kernel::AndroidContainerDriver driver_{simulator_};
  container::ContainerRuntime runtime_{kernel_};
};

TEST_F(CacTest, StartLoadsDriverOnFirstUse) {
  CloudAndroidContainer cac(shared_config("cac-1"), runtime_, driver_);
  EXPECT_FALSE(kernel::AndroidContainerDriver::loaded(kernel_));
  const auto cost = cac.start_container(kernel_);
  ASSERT_TRUE(cost.has_value());
  EXPECT_TRUE(kernel::AndroidContainerDriver::loaded(kernel_));
  EXPECT_GT(kernel_.module_refcount(kernel::kModBinder), 0u);
}

TEST_F(CacTest, SecondContainerSkipsDriverLoadCost) {
  CloudAndroidContainer first(shared_config("cac-1"), runtime_, driver_);
  CloudAndroidContainer second(shared_config("cac-2"), runtime_, driver_);
  const auto cost1 = first.start_container(kernel_);
  const auto cost2 = second.start_container(kernel_);
  ASSERT_TRUE(cost1 && cost2);
  EXPECT_GT(*cost1, *cost2);  // insmod only paid once
}

TEST_F(CacTest, FinishBootBringsUpAndroid) {
  CloudAndroidContainer cac(shared_config("cac-1"), runtime_, driver_);
  cac.start_container(kernel_);
  cac.finish_boot(0);
  EXPECT_TRUE(cac.booted());
  auto* container = cac.container();
  ASSERT_NE(container, nullptr);
  // init, servicemanager, zygote, system_server, offloadcontroller.
  EXPECT_GE(container->namespaces().pid.count(), 5u);
  // Core services registered with the per-namespace binder.
  const auto services = driver_.binder().service_names(container->devns());
  EXPECT_FALSE(services.empty());
}

TEST_F(CacTest, StartRefusesBrokenRootfs) {
  // A mis-assembled shared layer (no framework) must fail fast instead of
  // crashing zygote mid-boot.
  CacConfig broken = shared_config("broken");
  auto empty = std::make_shared<fs::Layer>("empty-system");
  empty->put_file("/system/etc/hosts", 64);
  broken.lower_layers = {empty};
  CloudAndroidContainer cac(broken, runtime_, driver_);
  EXPECT_FALSE(cac.start_container(kernel_).has_value());
  EXPECT_FALSE(cac.booted());
}

TEST_F(CacTest, BootPublishesProperties) {
  CloudAndroidContainer cac(shared_config("cac-1"), runtime_, driver_);
  cac.start_container(kernel_);
  EXPECT_EQ(cac.properties().size(), 0u);  // property service not up yet
  cac.finish_boot(0);
  EXPECT_EQ(*cac.properties().get("sys.boot_completed"), "1");
  EXPECT_EQ(*cac.properties().get("ro.serialno"), "cac-1");
  // The customized OS advertises its stubbed services.
  EXPECT_EQ(*cac.properties().get("ro.rattrap.stub.surfaceflinger"), "1");
}

TEST_F(CacTest, PrivateDeltaIsAFewMegabytes) {
  CloudAndroidContainer cac(shared_config("cac-1"), runtime_, driver_);
  cac.start_container(kernel_);
  cac.finish_boot(0);
  // Table I: < 7.1 MB per optimized container.
  EXPECT_GT(cac.private_disk_bytes(), 6ull * 1024 * 1024);
  EXPECT_LE(cac.private_disk_bytes(), 7340032u);
}

TEST_F(CacTest, BootMemoryMatchesProfile) {
  CloudAndroidContainer cac(shared_config("cac-1"), runtime_, driver_);
  const double mb =
      static_cast<double>(cac.boot_memory()) / (1024.0 * 1024.0);
  EXPECT_NEAR(mb, 96.35, 2.0);
}

TEST_F(CacTest, ShutdownReleasesDriverPins) {
  CloudAndroidContainer cac(shared_config("cac-1"), runtime_, driver_);
  cac.start_container(kernel_);
  cac.finish_boot(0);
  cac.shutdown(kernel_);
  EXPECT_FALSE(cac.booted());
  EXPECT_EQ(kernel_.module_refcount(kernel::kModBinder), 0u);
  EXPECT_TRUE(driver_.unload(kernel_));  // no pins left
}

TEST_F(CacTest, StockProfileUsesMoreMemory) {
  CacConfig stock = shared_config("stock");
  stock.profile = android::OsProfile::kStock;
  stock.lower_layers = {android::container_stock_layer()};
  CloudAndroidContainer a(stock, runtime_, driver_);
  CloudAndroidContainer b(shared_config("custom"), runtime_, driver_);
  EXPECT_GT(a.boot_memory(), b.boot_memory());
}

TEST_F(CacTest, UserspaceBootRespectsWarmFlag) {
  CacConfig cold = shared_config("cold");
  CacConfig warm = shared_config("warm");
  warm.warm_shared_layer = true;
  CloudAndroidContainer a(cold, runtime_, driver_);
  CloudAndroidContainer b(warm, runtime_, driver_);
  EXPECT_GT(a.userspace_boot().disk_read_bytes,
            b.userspace_boot().disk_read_bytes);
}

TEST_F(CacTest, BootSharesTheImageServiceTableAndPropertyArea) {
  CloudAndroidContainer cac(shared_config("cac-1"), runtime_, driver_);
  cac.start_container(kernel_);
  cac.finish_boot(0);
  const kernel::DevNsId ns = cac.container()->devns();
  auto& binder = driver_.binder();
  // Every service of the image resolves to the one system_server.
  const auto names = names_of(android::customized_services());
  EXPECT_EQ(binder.service_names(ns), names);
  const auto provider = binder.lookup_service(ns, names.front());
  ASSERT_TRUE(provider.has_value());
  for (const auto& name : names) {
    EXPECT_EQ(binder.lookup_service(ns, name), provider) << name;
  }
  // A later registration shadows the shared table in this namespace only.
  const kernel::BinderHandle other = binder.create_endpoint(ns);
  ASSERT_TRUE(binder.register_service(ns, names.front(), other));
  EXPECT_EQ(binder.lookup_service(ns, names.front()), other);
  EXPECT_EQ(binder.service_names(ns).size(), names.size());

  // The shared build properties are read-only through the CAC's store;
  // the CAC's own serial number and later sets land on top.
  android::PropertyStore& props = cac.properties();
  android::PropertyStore reference;
  android::populate_cac_properties(reference, "cac-1", true);
  EXPECT_EQ(props.size(), reference.size());
  EXPECT_EQ(props.by_prefix("ro."), reference.by_prefix("ro."));
  EXPECT_FALSE(props.set("ro.hardware", "phone"));
  EXPECT_TRUE(props.set("ro.hardware", "cloud-container"));
  EXPECT_TRUE(props.set("persist.sys.locale", "en-US"));
  EXPECT_EQ(props.size(), reference.size() + 1);
}

// -- Per-profile template ----------------------------------------------

void expect_same_boot(const android::UserspaceBoot& got,
                      const android::UserspaceBoot& want) {
  EXPECT_EQ(got.init_exec, want.init_exec);
  EXPECT_EQ(got.zygote_preload, want.zygote_preload);
  EXPECT_EQ(got.service_start, want.service_start);
  EXPECT_EQ(got.hardware_probe, want.hardware_probe);
  EXPECT_EQ(got.disk_read_bytes, want.disk_read_bytes);
  EXPECT_EQ(got.boot_memory, want.boot_memory);
}

/// `count` linpack requests from `devices` devices, one second apart on
/// average: each device binds its own environment.
std::vector<workloads::OffloadRequest> fleet_stream(std::size_t count,
                                                    std::uint32_t devices) {
  workloads::StreamConfig config;
  config.kind = workloads::Kind::kLinpack;
  config.count = count;
  config.devices = devices;
  config.mean_gap = sim::kSecond;
  config.seed = 7;
  return workloads::make_stream(config);
}

PlatformConfig kept_config(bool customized_os) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.customized_os = customized_os;
  config.env_idle_timeout = 0;  // every CAC stays up for inspection
  return config;
}

TEST(CacTemplate, ManyProvisionsPinOneLayerByItsDigest) {
  Platform platform(kept_config(true));
  (void)platform.run(fleet_stream(24, 12));
  ASSERT_GE(platform.env_table().records().size(), 12u);
  const container::LayerStore& store = platform.capacity().layer_store();
  EXPECT_EQ(store.layer_count(), 1u);
  const auto& shared = platform.server().shared_layer().system_layer();
  EXPECT_EQ(store.get(container::layer_digest(*shared)), shared);
  const obs::Gauge* pinned =
      platform.metrics().find_gauge("elastic.layers.pinned_bytes");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->value(), static_cast<double>(shared->total_bytes()));
}

TEST(CacTemplate, BootPlansAreTheBootModels) {
  for (const bool customized : {true, false}) {
    SCOPED_TRACE(customized ? "customized" : "stock");
    const android::OsProfile profile = customized
                                           ? android::OsProfile::kCustomized
                                           : android::OsProfile::kStock;
    Platform platform(kept_config(customized));
    (void)platform.run(fleet_stream(4, 2));
    const CacTemplate& tmpl = PlatformTestPeer::cac_template(platform);
    EXPECT_EQ(tmpl.profile, profile);
    for (const bool warm : {false, true}) {
      SCOPED_TRACE(warm ? "warm" : "cold");
      const android::UserspaceBoot want =
          android::container_userspace_boot(profile, warm);
      expect_same_boot(tmpl.boot(warm), want);
      // Env 1 booted the shared layer cold; env 2 found it page-cached.
      const auto& cac = PlatformTestPeer::env(platform, warm ? 2 : 1).cac;
      ASSERT_NE(cac, nullptr);
      expect_same_boot(cac->userspace_boot(), want);
      EXPECT_EQ(cac->boot_memory(), want.boot_memory);
    }
  }
}

TEST(CacTemplate, PlatformsKeepIndependentTemplates) {
  Platform customized(kept_config(true));
  Platform stock(kept_config(false));
  (void)customized.run(fleet_stream(4, 2));
  (void)stock.run(fleet_stream(4, 2));
  const CacTemplate& a = PlatformTestPeer::cac_template(customized);
  const CacTemplate& b = PlatformTestPeer::cac_template(stock);
  EXPECT_EQ(a.profile, android::OsProfile::kCustomized);
  EXPECT_EQ(b.profile, android::OsProfile::kStock);
  EXPECT_NE(a.cold_boot.boot_memory, b.cold_boot.boot_memory);
  EXPECT_EQ(*a.services, names_of(android::customized_services()));
  EXPECT_EQ(*b.services, names_of(android::stock_services()));
  EXPECT_EQ(a.build_properties->get("ro.rattrap.customized"), "1");
  EXPECT_EQ(b.build_properties->get("ro.rattrap.customized"), "0");
  EXPECT_EQ(a.container->lower_layers.front(),
            customized.server().shared_layer().system_layer());
  EXPECT_EQ(b.container->lower_layers.front(),
            stock.server().shared_layer().system_layer());
  EXPECT_EQ(customized.capacity().layer_store().layer_count(), 1u);
  EXPECT_EQ(stock.capacity().layer_store().layer_count(), 1u);
}

// -- Reclaim frees the CAC ---------------------------------------------

void expect_clean(const Platform& platform) {
  EXPECT_GT(platform.invariants().checks_run(), 0u);
  EXPECT_TRUE(platform.invariants().ok())
      << platform.invariants().first_violation()->detail;
  EXPECT_TRUE(platform.env_table().first_error().empty())
      << platform.env_table().first_error();
}

TEST(CacReclaim, IdleTimeoutFreesTheCac) {
  PlatformConfig config = make_config(PlatformKind::kRattrap);
  config.force_invariants = true;
  config.env_idle_timeout = 5 * sim::kSecond;
  Platform platform(std::move(config));
  (void)platform.run(fleet_stream(6, 3));
  // Every environment was reclaimed and left the table with its CAC.
  EXPECT_GT(platform.env_table().size(), 0u);
  EXPECT_EQ(platform.env_table().count(EnvState::kReclaimed),
            platform.env_table().size());
  EXPECT_EQ(platform.env_table().records().size(), 0u);
  expect_clean(platform);
}

TEST(CacReclaim, DrainFreesTheCac) {
  PlatformConfig config = kept_config(true);
  config.force_invariants = true;
  Platform platform(std::move(config));
  Result<Session> session = platform.open_session();
  ASSERT_TRUE(session.ok());
  for (const auto& request : fleet_stream(4, 2)) session->submit(request);
  bool drained = false;
  platform.server().simulator().schedule_at(
      60 * sim::kSecond, [&platform, &drained]() {
        drained = PlatformTestPeer::drain_env(platform, 1);
      });
  (void)session->close();
  ASSERT_TRUE(drained);
  // Env 1 was reclaimed and left the table with its CAC.
  EXPECT_EQ(platform.env_table().find(1), nullptr);
  EXPECT_EQ(platform.env_table().count(EnvState::kReclaimed), 1u);
  EXPECT_NE(PlatformTestPeer::env(platform, 2).cac, nullptr);  // still up
  expect_clean(platform);
}

TEST(CacReclaim, CrashFreesTheCac) {
  PlatformConfig config = kept_config(true);
  const auto plan = sim::FaultPlan::parse("container.crash:at=4");
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;
  config.crash_recovery = true;
  Platform platform(std::move(config));
  const auto outcomes = platform.run(fleet_stream(8, 2));
  for (const auto& outcome : outcomes) EXPECT_FALSE(outcome.stranded);
  const obs::Counter* crashes = platform.metrics().find_counter("env.crashes");
  ASSERT_NE(crashes, nullptr);
  ASSERT_GE(crashes->value(), 1u);
  // Idle reclaim is off, so only crashes ended environments, and every
  // crashed one left the table with its CAC.
  const EnvTable& envs = platform.env_table();
  EXPECT_EQ(envs.count(EnvState::kReclaimed), crashes->value());
  EXPECT_EQ(envs.records().size() + crashes->value(), envs.size());
  for (const EnvRecord& rec : envs.records()) {
    EXPECT_TRUE(rec.live()) << "env " << rec.id;
  }
  expect_clean(platform);
}

}  // namespace
}  // namespace rattrap::core
