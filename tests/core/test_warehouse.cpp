#include "core/warehouse.hpp"

#include <gtest/gtest.h>

namespace rattrap::core {
namespace {

TEST(Warehouse, FirstLookupMisses) {
  AppWarehouse warehouse;
  EXPECT_FALSE(warehouse.lookup("ref:app-a"));
  EXPECT_EQ(warehouse.miss_count(), 1u);
  EXPECT_EQ(warehouse.hit_count(), 0u);
}

TEST(Warehouse, StoreThenHit) {
  AppWarehouse warehouse;
  const Aid aid = warehouse.store("ref:app-a", 1000);
  EXPECT_GT(aid, 0u);
  EXPECT_TRUE(warehouse.lookup("ref:app-a"));
  EXPECT_EQ(warehouse.hit_count(), 1u);
  EXPECT_EQ(warehouse.stored_bytes(), 1000u);
}

TEST(Warehouse, CodeTransferredOnceAndForAll) {
  // §IV-D: "the code transfer happens when the application sends its
  // first offloading request, once and for all."
  AppWarehouse warehouse;
  warehouse.store("ref:app-a", 1000);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(warehouse.lookup("ref:app-a"));
  }
  EXPECT_EQ(warehouse.miss_count(), 0u);
}

TEST(Warehouse, RestoreRefreshesSize) {
  AppWarehouse warehouse;
  const Aid a = warehouse.store("ref:app-a", 1000);
  const Aid b = warehouse.store("ref:app-a", 1500);
  EXPECT_EQ(a, b);  // same AID
  EXPECT_EQ(warehouse.stored_bytes(), 1500u);
  EXPECT_EQ(warehouse.entry_count(), 1u);
}

TEST(Warehouse, AidsAreDistinctPerApp) {
  AppWarehouse warehouse;
  EXPECT_NE(warehouse.store("ref:a", 10), warehouse.store("ref:b", 10));
}

TEST(Warehouse, ExecutionMappingDrivesAffinity) {
  AppWarehouse warehouse;
  warehouse.store("ref:app-a", 1000);
  EXPECT_FALSE(warehouse.preferred_env("ref:app-a").has_value());
  warehouse.record_execution("ref:app-a", 7);
  warehouse.record_execution("ref:app-a", 3);
  ASSERT_TRUE(warehouse.preferred_env("ref:app-a").has_value());
  EXPECT_EQ(*warehouse.preferred_env("ref:app-a"), 3u);  // lowest CID
}

TEST(Warehouse, ForgetEnvRemovesMappings) {
  AppWarehouse warehouse;
  warehouse.store("ref:app-a", 1000);
  warehouse.record_execution("ref:app-a", 3);
  warehouse.forget_env(3);
  EXPECT_FALSE(warehouse.preferred_env("ref:app-a").has_value());
}

TEST(Warehouse, MappingCountFollowsEntriesAndEvictions) {
  AppWarehouse warehouse(2500);
  warehouse.store("ref:a", 1000);
  warehouse.store("ref:b", 1000);
  warehouse.record_execution("ref:a", 3);
  warehouse.record_execution("ref:a", 3);  // already mapped
  warehouse.record_execution("ref:b", 3);
  warehouse.record_execution("ref:b", 4);
  EXPECT_EQ(warehouse.mapping_count(3), 2u);
  EXPECT_EQ(warehouse.mapping_count(4), 1u);
  EXPECT_EQ(warehouse.mapping_count(5), 0u);
  warehouse.store("ref:c", 1000);  // evicts ref:a, the least recent
  EXPECT_EQ(warehouse.mapping_count(3), 1u);
  warehouse.forget_env(3);
  EXPECT_EQ(warehouse.mapping_count(3), 0u);
  EXPECT_EQ(warehouse.mapping_count(4), 1u);
}

TEST(Warehouse, RecordExecutionForUnknownReferenceIsIgnored) {
  AppWarehouse warehouse;
  warehouse.record_execution("ref:ghost", 1);
  EXPECT_FALSE(warehouse.preferred_env("ref:ghost").has_value());
}

TEST(Warehouse, LruEvictionUnderCapacity) {
  AppWarehouse warehouse(2500);
  warehouse.store("ref:a", 1000);
  warehouse.store("ref:b", 1000);
  warehouse.lookup("ref:a");  // refresh a; b becomes LRU
  warehouse.store("ref:c", 1000);  // evicts b
  EXPECT_TRUE(warehouse.hit("ref:a"));
  EXPECT_FALSE(warehouse.hit("ref:b"));
  EXPECT_TRUE(warehouse.hit("ref:c"));
  EXPECT_EQ(warehouse.evictions(), 1u);
  EXPECT_LE(warehouse.stored_bytes(), 2500u);
}

TEST(Warehouse, UnboundedByDefault) {
  AppWarehouse warehouse;
  for (int i = 0; i < 100; ++i) {
    warehouse.store("ref:app-" + std::to_string(i), 1 << 20);
  }
  EXPECT_EQ(warehouse.entry_count(), 100u);
  EXPECT_EQ(warehouse.evictions(), 0u);
}

TEST(Warehouse, FindExposesEntryMetadata) {
  AppWarehouse warehouse;
  warehouse.store("ref:a", 4242);
  warehouse.lookup("ref:a");
  const CacheEntry* entry = warehouse.find("ref:a");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->code_bytes, 4242u);
  EXPECT_EQ(entry->hits, 1u);
  EXPECT_EQ(warehouse.find("ref:none"), nullptr);
}

}  // namespace
}  // namespace rattrap::core
