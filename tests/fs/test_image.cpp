#include "fs/image.hpp"

#include <gtest/gtest.h>

#include <set>

namespace rattrap::fs {
namespace {

ImageBuilder sample_builder() {
  ImageBuilder builder;
  builder.add_group({"/system/lib", "lib", ".so", 50, 1000000, true});
  builder.add_group({"/system/app", "app", ".apk", 10, 500000, false});
  return builder;
}

TEST(ImageBuilder, DeclaredTotals) {
  const ImageBuilder builder = sample_builder();
  EXPECT_EQ(builder.total_bytes(), 1500000u);
  EXPECT_EQ(builder.essential_bytes(), 1000000u);
}

TEST(ImageBuilder, BuildHitsDeclaredVolumeExactly) {
  const ImageBuilder builder = sample_builder();
  const auto layer = builder.build("img", sim::Rng(1));
  EXPECT_EQ(layer->total_bytes(), 1500000u);
  EXPECT_EQ(layer->file_count(), 60u);
}

TEST(ImageBuilder, GroupVolumesExact) {
  const ImageBuilder builder = sample_builder();
  const auto layer = builder.build("img", sim::Rng(1));
  EXPECT_EQ(layer->bytes_under("/system/lib"), 1000000u);
  EXPECT_EQ(layer->bytes_under("/system/app"), 500000u);
}

TEST(ImageBuilder, DeterministicAcrossBuilds) {
  const ImageBuilder builder = sample_builder();
  const auto a = builder.build("a", sim::Rng(7));
  const auto b = builder.build("b", sim::Rng(7));
  a->for_each([&](const std::string& path, const FileNode& node) {
    if (node.kind != FileKind::kRegular) return true;
    const FileNode* other = b->find(path);
    EXPECT_NE(other, nullptr) << path;
    if (other != nullptr) {
      EXPECT_EQ(node.size, other->size) << path;
    }
    return true;
  });
}

TEST(ImageBuilder, FileSizesVary) {
  const ImageBuilder builder = sample_builder();
  const auto layer = builder.build("img", sim::Rng(3));
  std::set<std::uint64_t> sizes;
  layer->for_each_under("/system/lib",
                        [&](const std::string&, const FileNode& node) {
                          if (node.kind == FileKind::kRegular) {
                            sizes.insert(node.size);
                          }
                          return true;
                        });
  EXPECT_GT(sizes.size(), 20u);  // lognormal spread, not uniform chunks
}

TEST(ImageBuilder, EssentialPathsMatchEssentialGroups) {
  const ImageBuilder builder = sample_builder();
  const auto paths = builder.essential_paths();
  EXPECT_EQ(paths.size(), 50u);
  for (const auto& path : paths) {
    EXPECT_TRUE(path.starts_with("/system/lib/"));
  }
}

TEST(ImageBuilder, EmptyGroupIsSkipped) {
  ImageBuilder builder;
  builder.add_group({"/x", "f", "", 0, 0, false});
  const auto layer = builder.build("img", sim::Rng(1));
  EXPECT_EQ(layer->file_count(), 0u);
}

}  // namespace
}  // namespace rattrap::fs
