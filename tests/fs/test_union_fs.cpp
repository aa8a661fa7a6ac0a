#include "fs/union_fs.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "sim/random.hpp"

namespace rattrap::fs {
namespace {

std::shared_ptr<Layer> make_lower() {
  auto lower = std::make_shared<Layer>("system");
  lower->put_file("/system/lib/libc.so", 1000);
  lower->put_file("/system/lib/libm.so", 500);
  lower->put_file("/system/app/base.apk", 2000);
  return lower;
}

TEST(UnionFs, LookupFindsLowerLayerFiles) {
  UnionFs ufs("c1", {make_lower()});
  const UnionHit hit = ufs.lookup("/system/lib/libc.so");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 1000u);
  EXPECT_GT(hit.layer_index, 0u);  // resolved below the top
}

TEST(UnionFs, TopLayerShadowsLower) {
  UnionFs ufs("c1", {make_lower()});
  ufs.write("/system/lib/libc.so", 42, 0);
  const UnionHit hit = ufs.lookup("/system/lib/libc.so");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 42u);
  EXPECT_EQ(hit.layer_index, 0u);
}

TEST(UnionFs, HigherLowerLayerWins) {
  auto bottom = std::make_shared<Layer>("bottom");
  bottom->put_file("/f", 1);
  auto middle = std::make_shared<Layer>("middle");
  middle->put_file("/f", 2);
  UnionFs ufs("c1", {bottom, middle});
  const UnionHit hit = ufs.lookup("/f");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 2u);
}

TEST(UnionFs, CowCopiesUpOnWriteToLowerFile) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_EQ(ufs.cow_bytes(), 0u);
  ufs.write("/system/lib/libc.so", 1100, 0);
  EXPECT_EQ(ufs.cow_bytes(), 1000u);  // original bytes materialized
  EXPECT_EQ(ufs.private_bytes(), 1100u);
}

TEST(UnionFs, WriteToFreshPathNoCow) {
  UnionFs ufs("c1", {make_lower()});
  ufs.write("/data/new.bin", 77, 0);
  EXPECT_EQ(ufs.cow_bytes(), 0u);
  EXPECT_EQ(ufs.private_bytes(), 77u);
}

TEST(UnionFs, AppendCopiesUpOnce) {
  UnionFs ufs("c1", {make_lower()});
  ufs.append("/system/lib/libm.so", 10, 0);
  EXPECT_EQ(ufs.cow_bytes(), 500u);
  EXPECT_EQ(ufs.lookup("/system/lib/libm.so").node->size, 510u);
  ufs.append("/system/lib/libm.so", 10, 0);
  EXPECT_EQ(ufs.cow_bytes(), 500u);  // second append is already in top
  EXPECT_EQ(ufs.lookup("/system/lib/libm.so").node->size, 520u);
}

TEST(UnionFs, UnlinkLowerFilePlantsWhiteout) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_TRUE(ufs.unlink("/system/app/base.apk"));
  EXPECT_FALSE(ufs.exists("/system/app/base.apk"));
  EXPECT_EQ(ufs.read("/system/app/base.apk", 0), -1);
  // The lower layer itself is untouched (it is shared).
  EXPECT_FALSE(ufs.unlink("/system/app/base.apk"));  // already hidden
}

TEST(UnionFs, UnlinkTopOnlyFileRemovesIt) {
  UnionFs ufs("c1", {make_lower()});
  ufs.write("/tmp/x", 9, 0);
  EXPECT_TRUE(ufs.unlink("/tmp/x"));
  EXPECT_FALSE(ufs.exists("/tmp/x"));
  EXPECT_EQ(ufs.private_bytes(), 0u);
}

TEST(UnionFs, WriteAfterUnlinkRevivesFile) {
  UnionFs ufs("c1", {make_lower()});
  ufs.unlink("/system/lib/libc.so");
  ufs.write("/system/lib/libc.so", 5, 0);
  const UnionHit hit = ufs.lookup("/system/lib/libc.so");
  ASSERT_NE(hit.node, nullptr);
  EXPECT_EQ(hit.node->size, 5u);
}

TEST(UnionFs, VisibleBytesUsesUnionSemantics) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_EQ(ufs.visible_bytes(), 3500u);
  ufs.write("/system/lib/libc.so", 100, 0);  // shadows the 1000-byte file
  EXPECT_EQ(ufs.visible_bytes(), 2600u);
  ufs.unlink("/system/app/base.apk");
  EXPECT_EQ(ufs.visible_bytes(), 600u);
}

TEST(UnionFs, NeverAccessedTracking) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_DOUBLE_EQ(ufs.never_accessed_fraction(), 1.0);
  ufs.read("/system/lib/libc.so", 10);
  EXPECT_NEAR(ufs.never_accessed_fraction(), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(ufs.never_accessed_bytes(), 2500u);
  // Reads of top-layer files count too.
  ufs.write("/data/own.bin", 50, 10);
  ufs.read("/data/own.bin", 11);
  EXPECT_NEAR(ufs.never_accessed_fraction(), 2.0 / 4.0, 1e-9);
}

TEST(UnionFs, SharedLowerLayerIsReusableAcrossMounts) {
  const auto lower = make_lower();
  UnionFs a("a", {lower});
  UnionFs b("b", {lower});
  a.write("/system/lib/libc.so", 1, 0);
  // b still sees the pristine lower file.
  EXPECT_EQ(b.lookup("/system/lib/libc.so").node->size, 1000u);
  EXPECT_EQ(b.private_bytes(), 0u);
}

TEST(UnionFs, ReaddirMergesLayersAndDirectories) {
  auto lower = make_lower();
  UnionFs ufs("c1", {lower});
  ufs.write("/system/lib/libnew.so", 10, 0);
  ufs.write("/data/app.log", 5, 0);
  const auto system = ufs.readdir("/system");
  EXPECT_EQ(system, (std::vector<std::string>{"app", "lib"}));
  const auto lib = ufs.readdir("/system/lib");
  EXPECT_EQ(lib, (std::vector<std::string>{"libc.so", "libm.so",
                                           "libnew.so"}));
  const auto root = ufs.readdir("/");
  EXPECT_EQ(root, (std::vector<std::string>{"data", "system"}));
}

TEST(UnionFs, ReaddirHidesWhiteoutedEntries) {
  UnionFs ufs("c1", {make_lower()});
  ufs.unlink("/system/lib/libm.so");
  const auto lib = ufs.readdir("/system/lib");
  EXPECT_EQ(lib, (std::vector<std::string>{"libc.so"}));
}

TEST(UnionFs, ReaddirOfEmptyOrMissingDirectory) {
  UnionFs ufs("c1", {make_lower()});
  EXPECT_TRUE(ufs.readdir("/nonexistent").empty());
}

// Property: a UnionFs over random operations agrees with a flat
// reference model (map path -> size).
class UnionFsModelCheck : public ::testing::TestWithParam<int> {};

TEST_P(UnionFsModelCheck, AgreesWithReferenceModel) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto lower = std::make_shared<Layer>("low");
  std::map<std::string, std::uint64_t> model;
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/f" + std::to_string(i);
    const auto size = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
    lower->put_file(path, size);
    model[path] = size;
  }
  UnionFs ufs("mut", {lower});
  for (int op = 0; op < 400; ++op) {
    const std::string path =
        "/f" + std::to_string(rng.uniform_int(0, 29));  // some misses
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const auto size = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
      ufs.write(path, size, op);
      model[path] = size;
    } else if (dice < 0.7) {
      const bool removed = ufs.unlink(path);
      EXPECT_EQ(removed, model.erase(path) > 0) << path;
    } else {
      const std::int64_t got = ufs.read(path, op);
      const auto it = model.find(path);
      if (it == model.end()) {
        EXPECT_EQ(got, -1) << path;
      } else {
        EXPECT_EQ(got, static_cast<std::int64_t>(it->second)) << path;
      }
    }
  }
  // Final visibility agrees everywhere.
  std::uint64_t model_bytes = 0;
  for (const auto& [path, size] : model) {
    EXPECT_TRUE(ufs.exists(path)) << path;
    model_bytes += size;
  }
  EXPECT_EQ(ufs.visible_bytes(), model_bytes);
  EXPECT_EQ(ufs.visible_files(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFsModelCheck,
                         ::testing::Range(1, 11));

// -- Private base -------------------------------------------------------

TEST(UnionFsPrivateBase, BaseFilesArePrivateUntilShadowed) {
  auto seed = std::make_shared<Layer>("seed");
  seed->put_file("/data/app.bin", 300);
  seed->put_file("/data/boot.log", 100);
  UnionFs ufs("mnt", {make_lower()});
  ufs.set_private_base(seed);
  EXPECT_EQ(ufs.private_bytes(), 400u);
  EXPECT_EQ(ufs.lookup("/data/app.bin").layer_index, 0u);
  ufs.write("/data/app.bin", 50, 1);  // shadows the seed copy, no COW
  EXPECT_EQ(ufs.private_bytes(), 150u);
  EXPECT_EQ(ufs.cow_bytes(), 0u);
  EXPECT_TRUE(ufs.unlink("/data/boot.log"));
  EXPECT_FALSE(ufs.exists("/data/boot.log"));
  EXPECT_EQ(ufs.private_bytes(), 50u);
  EXPECT_EQ(seed->total_bytes(), 400u);  // the base never changes
  EXPECT_EQ(ufs.drop_private(), 50u);
  EXPECT_EQ(ufs.private_bytes(), 0u);
  EXPECT_FALSE(ufs.exists("/data/app.bin"));
  EXPECT_TRUE(ufs.exists("/system/lib/libc.so"));
}

// Property: a mount over a private base agrees, operation by operation,
// with a mount whose top layer had the same files written into it.
class UnionFsPrivateBaseModelCheck : public ::testing::TestWithParam<int> {};

TEST_P(UnionFsPrivateBaseModelCheck, AgreesWithWrittenSeed) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto lower = std::make_shared<Layer>("low");
  auto seed = std::make_shared<Layer>("seed");
  UnionFs written("written", {lower});
  for (int i = 0; i < 20; ++i) {
    const auto size = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
    lower->put_file("/f" + std::to_string(i), size);
  }
  for (int i = 10; i < 25; ++i) {  // overlaps the lower layer's files
    const auto size = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
    seed->put_file("/f" + std::to_string(i), size);
    written.write("/f" + std::to_string(i), size, 0);
  }
  // Writing the seed copied up the lower files it replaced; the base
  // holds them without a copy-up.
  const std::uint64_t seed_cow = written.cow_bytes();
  UnionFs based("based", {lower});
  based.set_private_base(seed);
  EXPECT_EQ(based.private_bytes(), written.private_bytes());
  for (int op = 0; op < 400; ++op) {
    const std::string path = "/f" + std::to_string(rng.uniform_int(0, 29));
    const double dice = rng.uniform();
    if (dice < 0.35) {
      const auto size = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
      written.write(path, size, op);
      based.write(path, size, op);
    } else if (dice < 0.5) {
      const auto delta = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
      written.append(path, delta, op);
      based.append(path, delta, op);
    } else if (dice < 0.75) {
      EXPECT_EQ(based.unlink(path), written.unlink(path)) << path;
    } else {
      EXPECT_EQ(based.read(path, op), written.read(path, op)) << path;
    }
    ASSERT_EQ(based.private_bytes(), written.private_bytes()) << op;
    ASSERT_EQ(based.cow_bytes(), written.cow_bytes() - seed_cow) << op;
    const UnionHit a = based.lookup(path);
    const UnionHit b = written.lookup(path);
    ASSERT_EQ(a.node == nullptr, b.node == nullptr) << path;
    if (a.node != nullptr) {
      EXPECT_EQ(a.node->size, b.node->size) << path;
      EXPECT_EQ(a.layer_index, b.layer_index) << path;
    }
  }
  EXPECT_EQ(based.visible_bytes(), written.visible_bytes());
  EXPECT_EQ(based.visible_files(), written.visible_files());
  EXPECT_EQ(based.readdir("/"), written.readdir("/"));
  EXPECT_DOUBLE_EQ(based.never_accessed_fraction(),
                   written.never_accessed_fraction());
  EXPECT_EQ(based.drop_private(), written.private_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFsPrivateBaseModelCheck,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace rattrap::fs
