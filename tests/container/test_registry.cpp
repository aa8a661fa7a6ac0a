#include "container/registry.hpp"

#include <gtest/gtest.h>

#include "android/image_profile.hpp"
#include "fs/union_fs.hpp"

namespace rattrap::container {
namespace {

std::shared_ptr<fs::Layer> small_layer(const std::string& name,
                                       std::uint64_t size) {
  auto layer = std::make_shared<fs::Layer>(name);
  layer->put_file("/opt/" + name + ".bin", size);
  return layer;
}

TEST(Registry, DigestIsContentAddressed) {
  auto a = std::make_shared<fs::Layer>("a");
  auto b = std::make_shared<fs::Layer>("b");  // different name...
  a->put_file("/x", 100);
  b->put_file("/x", 100);  // ...same contents
  EXPECT_EQ(layer_digest(*a), layer_digest(*b));
  b->put_file("/y", 1);
  EXPECT_NE(layer_digest(*a), layer_digest(*b));
}

TEST(Registry, DigestSensitiveToSizeAndKind) {
  auto a = std::make_shared<fs::Layer>("a");
  auto b = std::make_shared<fs::Layer>("b");
  a->put_file("/x", 100);
  b->put_file("/x", 101);
  EXPECT_NE(layer_digest(*a), layer_digest(*b));
  auto c = std::make_shared<fs::Layer>("c");
  c->put_dir("/x");
  EXPECT_NE(layer_digest(*a), layer_digest(*c));
}

TEST(Registry, PushImageRequiresPushedLayers) {
  ImageRegistry registry;
  EXPECT_FALSE(registry.push_image("app:1", {12345}));
  const Digest d = registry.push_layer(small_layer("base", 1000));
  EXPECT_TRUE(registry.push_image("app:1", {d}));
  ASSERT_NE(registry.find("app:1"), nullptr);
  EXPECT_EQ(registry.find("app:1")->total_bytes, 1000u);
  EXPECT_EQ(registry.find("missing"), nullptr);
}

TEST(Registry, PullTransfersMissingLayersOnly) {
  ImageRegistry registry;
  const Digest base = registry.push_layer(small_layer("base", 1000));
  const Digest extra = registry.push_layer(small_layer("extra", 50));
  registry.push_image("app:1", {base});
  registry.push_image("app:2", {base, extra});

  LayerStore host;
  const PullResult first = registry.pull("app:1", host);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.bytes_transferred, 1000u);
  EXPECT_EQ(first.bytes_deduplicated, 0u);

  // The second image shares the base layer: only the delta travels.
  const PullResult second = registry.pull("app:2", host);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.bytes_transferred, 50u);
  EXPECT_EQ(second.bytes_deduplicated, 1000u);
  EXPECT_EQ(host.layer_count(), 2u);
  EXPECT_EQ(host.stored_bytes(), 1050u);
}

TEST(Registry, RepeatedPullIsFullyDeduplicated) {
  ImageRegistry registry;
  const Digest d = registry.push_layer(small_layer("base", 1000));
  registry.push_image("app:1", {d});
  LayerStore host;
  const PullResult first = registry.pull("app:1", host);
  EXPECT_EQ(first.bytes_transferred, 1000u);
  EXPECT_EQ(first.bytes_deduplicated, 0u);
  const PullResult again = registry.pull("app:1", host);
  EXPECT_EQ(again.bytes_transferred, 0u);
  EXPECT_EQ(again.bytes_deduplicated, 1000u);
}

TEST(Registry, PullPreservesLayerOrder) {
  ImageRegistry registry;
  const Digest bottom = registry.push_layer(small_layer("bottom", 10));
  const Digest top = registry.push_layer(small_layer("top", 20));
  registry.push_image("stacked:1", {bottom, top});
  LayerStore host;
  const PullResult result = registry.pull("stacked:1", host);
  ASSERT_EQ(result.layers.size(), 2u);
  EXPECT_TRUE(result.layers[0]->contains("/opt/bottom.bin"));
  EXPECT_TRUE(result.layers[1]->contains("/opt/top.bin"));
}

TEST(Registry, PullUnknownImageFails) {
  ImageRegistry registry;
  LayerStore host;
  EXPECT_FALSE(registry.pull("ghost:1", host).ok);
}

TEST(Registry, RattrapImageDistribution) {
  // The future-work §VIII scenario: the customized Android system image
  // is the shared base layer; each node pulls it once and per-app images
  // add only their deltas.
  ImageRegistry registry;
  const Digest system = registry.push_layer(android::customized_layer());
  auto ocr_delta = small_layer("com.bench.ocr", 1152 * 1024);
  auto chess_delta = small_layer("com.bench.chess", 2210 * 1024);
  const Digest ocr = registry.push_layer(ocr_delta);
  const Digest chess = registry.push_layer(chess_delta);
  registry.push_image("rattrap/cac:ocr", {system, ocr});
  registry.push_image("rattrap/cac:chess", {system, chess});

  LayerStore node;
  const auto first = registry.pull("rattrap/cac:ocr", node);
  const auto second = registry.pull("rattrap/cac:chess", node);
  EXPECT_EQ(first.bytes_transferred,
            android::customized_layer()->total_bytes() + 1152 * 1024);
  // The ~358 MB system layer is deduplicated on the second pull.
  EXPECT_EQ(second.bytes_transferred, 2210u * 1024);
  EXPECT_EQ(second.bytes_deduplicated,
            android::customized_layer()->total_bytes());
}

TEST(Registry, PulledLayersAreMountableAsRootfs) {
  ImageRegistry registry;
  const Digest system = registry.push_layer(android::customized_layer());
  registry.push_image("rattrap/cac:base", {system});
  LayerStore node;
  const PullResult result = registry.pull("rattrap/cac:base", node);
  ASSERT_TRUE(result.ok);
  fs::UnionFs rootfs("from-image", result.layers);
  EXPECT_TRUE(rootfs.exists("/system/framework/core0.jar"));
  EXPECT_EQ(rootfs.visible_bytes(),
            android::customized_layer()->total_bytes());
}

}  // namespace
}  // namespace rattrap::container
