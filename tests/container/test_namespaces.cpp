#include "container/namespaces.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rattrap::container {
namespace {

TEST(PidNamespace, FirstSpawnIsInit) {
  PidNamespace ns;
  EXPECT_EQ(ns.spawn("init"), 1);
  EXPECT_EQ(ns.spawn("zygote"), 2);
  EXPECT_EQ(ns.count(), 2u);
}

TEST(PidNamespace, NameLookup) {
  PidNamespace ns;
  const Pid pid = ns.spawn("system_server");
  ASSERT_TRUE(ns.name_of(pid).has_value());
  EXPECT_EQ(*ns.name_of(pid), "system_server");
  EXPECT_FALSE(ns.name_of(99).has_value());
}

TEST(PidNamespace, KillRemovesProcess) {
  PidNamespace ns;
  ns.spawn("init");
  const Pid child = ns.spawn("worker");
  EXPECT_TRUE(ns.kill(child));
  EXPECT_FALSE(ns.exists(child));
  EXPECT_FALSE(ns.kill(child));
  EXPECT_EQ(ns.count(), 1u);
}

TEST(PidNamespace, KillingInitKillsEveryone) {
  PidNamespace ns;
  ns.spawn("init");
  ns.spawn("a");
  ns.spawn("b");
  EXPECT_TRUE(ns.kill(1));
  EXPECT_EQ(ns.count(), 0u);
}

TEST(PidNamespace, PidsAreNotReusedAfterKill) {
  PidNamespace ns;
  ns.spawn("init");
  const Pid a = ns.spawn("a");
  ns.kill(a);
  const Pid b = ns.spawn("b");
  EXPECT_GT(b, a);
}

TEST(PidNamespace, PidListing) {
  PidNamespace ns;
  ns.spawn("init");
  ns.spawn("a");
  const auto pids = ns.pids();
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_EQ(pids[0], 1);
  EXPECT_EQ(pids[1], 2);
}

std::shared_ptr<const PidNamespace> booted_tree() {
  auto tree = std::make_shared<PidNamespace>();
  tree->spawn("init");
  tree->spawn("zygote");
  tree->spawn("system_server");
  return tree;
}

TEST(PidSnapshot, CloneReadsTheSnapshotAndSpawnsAfterIt) {
  const auto tree = booted_tree();
  PidNamespace clone(tree);
  EXPECT_EQ(clone.count(), 3u);
  EXPECT_EQ(clone.name_of(2), std::optional<std::string>("zygote"));
  EXPECT_EQ(clone.spawn("app"), 4);
  EXPECT_EQ(clone.pids(), (std::vector<Pid>{1, 2, 3, 4}));
  EXPECT_EQ(tree->count(), 3u);  // the snapshot never changes
}

TEST(PidSnapshot, KillsStayInTheClone) {
  const auto tree = booted_tree();
  PidNamespace a(tree);
  PidNamespace b(tree);
  EXPECT_TRUE(a.kill(2));
  EXPECT_FALSE(a.kill(2));
  EXPECT_FALSE(a.exists(2));
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.pids(), (std::vector<Pid>{1, 3}));
  EXPECT_TRUE(b.exists(2));
  // Killing init drops the whole view, snapshot included.
  a.spawn("app");
  EXPECT_TRUE(a.kill(1));
  EXPECT_EQ(a.count(), 0u);
  EXPECT_FALSE(a.exists(3));
  EXPECT_EQ(b.count(), 3u);
}

TEST(NamespaceSet, DefaultConstructible) {
  NamespaceSet set;
  set.uts.hostname = "cac-1";
  set.net.address = "10.0.1.2";
  EXPECT_EQ(set.pid.count(), 0u);
  EXPECT_EQ(set.uts.hostname, "cac-1");
}

}  // namespace
}  // namespace rattrap::container
