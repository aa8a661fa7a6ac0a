#include "fs/path.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"

namespace rattrap::fs {
namespace {

TEST(Path, NormalizeBasics) {
  EXPECT_EQ(normalize("/a/b/c"), "/a/b/c");
  EXPECT_EQ(normalize("a/b"), "/a/b");
  EXPECT_EQ(normalize("/"), "/");
  EXPECT_EQ(normalize(""), "/");
}

TEST(Path, NormalizeCollapsesSlashes) {
  EXPECT_EQ(normalize("//a///b//"), "/a/b");
  EXPECT_EQ(normalize("/a/b/"), "/a/b");
}

TEST(Path, NormalizeDots) {
  EXPECT_EQ(normalize("/a/./b"), "/a/b");
  EXPECT_EQ(normalize("/a/../b"), "/b");
  EXPECT_EQ(normalize("/a/b/../../c"), "/c");
  EXPECT_EQ(normalize("/.."), "/");
  EXPECT_EQ(normalize("/../../x"), "/x");
}

TEST(Path, Join) {
  EXPECT_EQ(join("/a", "b"), "/a/b");
  EXPECT_EQ(join("/a/", "/b/"), "/a/b");
  EXPECT_EQ(join("/a", "../c"), "/c");
  EXPECT_EQ(join("/", "x"), "/x");
}

TEST(Path, ParentAndBasename) {
  EXPECT_EQ(parent("/a/b/c"), "/a/b");
  EXPECT_EQ(parent("/a"), "/");
  EXPECT_EQ(parent("/"), "/");
  EXPECT_EQ(basename("/a/b/c"), "c");
  EXPECT_EQ(basename("/a"), "a");
  EXPECT_EQ(basename("/"), "");
}

TEST(Path, Components) {
  const auto parts = components("/a/b/c");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(components("/").empty());
}

TEST(Path, IsUnder) {
  EXPECT_TRUE(is_under("/a/b", "/a"));
  EXPECT_TRUE(is_under("/a", "/a"));
  EXPECT_TRUE(is_under("/anything", "/"));
  EXPECT_FALSE(is_under("/ab", "/a"));  // sibling prefix, not subtree
  EXPECT_FALSE(is_under("/a", "/a/b"));
}

class PathIdempotence : public ::testing::TestWithParam<const char*> {};

TEST_P(PathIdempotence, NormalizeIsIdempotent) {
  const std::string once = normalize(GetParam());
  EXPECT_EQ(normalize(once), once);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PathIdempotence,
    ::testing::Values("/a//b/../c/./d", "////", "a/..", "/x/y/z///",
                      "../..", "/system/lib/../app"));

/// The component-splitting normalizer every path went through before
/// normalize() gained its already-canonical early return: the property
/// test below holds the fast path to it.
std::string reference_normalize(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    const std::size_t start = i;
    while (i < path.size() && path[i] != '/') ++i;
    if (i == start) break;
    const std::string_view part = path.substr(start, i - start);
    if (part == ".") continue;
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
      continue;
    }
    parts.push_back(part);
  }
  if (parts.empty()) return "/";
  std::string out;
  for (const std::string_view part : parts) {
    out.push_back('/');
    out.append(part);
  }
  return out;
}

/// A random path over the pieces that make normalization interesting:
/// ".", "..", empty components ("//"), trailing slashes, relative starts,
/// and names that merely begin with a dot.
std::string random_path(sim::Rng& rng) {
  static constexpr std::array<std::string_view, 9> kPieces = {
      "a", "bc", ".", "..", "", ".hidden", "..x", "x.", "offload"};
  std::string path = rng.bernoulli(0.75) ? "/" : "";
  const auto count = rng.uniform_int(0, 6);
  for (std::int64_t i = 0; i < count; ++i) {
    if (i > 0) path.push_back('/');
    path.append(kPieces[static_cast<std::size_t>(
        rng.uniform_int(0, kPieces.size() - 1))]);
  }
  if (rng.bernoulli(0.25)) path.push_back('/');
  return path;
}

TEST(PathProperty, NormalizeMatchesReferenceOnRandomCorpus) {
  sim::Rng rng(2024);
  std::size_t already_canonical = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string path = random_path(rng);
    const std::string expected = reference_normalize(path);
    ASSERT_EQ(normalize(path), expected) << "path: \"" << path << '"';
    ASSERT_TRUE(is_normalized(expected)) << "path: \"" << path << '"';
    // is_normalized is exactly "normalize would not change it".
    ASSERT_EQ(is_normalized(path), path == expected)
        << "path: \"" << path << '"';
    std::string scratch;
    ASSERT_EQ(canonical(path, scratch), expected);
    if (path == expected) ++already_canonical;
  }
  // The corpus exercises both the early return and the slow path.
  EXPECT_GT(already_canonical, 1000u);
  EXPECT_LT(already_canonical, 19000u);
}

TEST(PathProperty, IsNormalizedEdgeCases) {
  EXPECT_TRUE(is_normalized("/"));
  EXPECT_TRUE(is_normalized("/a/.b/c.."));
  EXPECT_FALSE(is_normalized(""));
  EXPECT_FALSE(is_normalized("a"));
  EXPECT_FALSE(is_normalized("//"));
  EXPECT_FALSE(is_normalized("/a/"));
  EXPECT_FALSE(is_normalized("/a//b"));
  EXPECT_FALSE(is_normalized("/a/./b"));
  EXPECT_FALSE(is_normalized("/a/.."));
  EXPECT_FALSE(is_normalized("/."));
}

}  // namespace
}  // namespace rattrap::fs
