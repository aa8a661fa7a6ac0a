#include "fs/tmpfs.hpp"

#include <gtest/gtest.h>

namespace rattrap::fs {
namespace {

TEST(TmpFs, WriteReadRoundTrip) {
  TmpFs fs("t", 1024, 1000.0);
  EXPECT_TRUE(fs.write("/a", 100, 0));
  EXPECT_EQ(fs.read("/a", 1), 100);
  EXPECT_EQ(fs.used_bytes(), 100u);
}

TEST(TmpFs, CapacityEnforced) {
  TmpFs fs("t", 100, 1000.0);
  EXPECT_TRUE(fs.write("/a", 80, 0));
  EXPECT_FALSE(fs.write("/b", 30, 0));
  EXPECT_EQ(fs.used_bytes(), 80u);
  EXPECT_EQ(fs.free_bytes(), 20u);
}

TEST(TmpFs, ReplacementFreesOldBytesFirst) {
  TmpFs fs("t", 100, 1000.0);
  EXPECT_TRUE(fs.write("/a", 80, 0));
  EXPECT_TRUE(fs.write("/a", 95, 0));  // 80 freed, 95 fits
  EXPECT_EQ(fs.used_bytes(), 95u);
}

TEST(TmpFs, BurnAfterReading) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/once", 64, 0, /*burn_after_reading=*/true);
  EXPECT_TRUE(fs.exists("/once"));
  EXPECT_EQ(fs.read("/once", 1), 64);
  EXPECT_FALSE(fs.exists("/once"));   // burned
  EXPECT_EQ(fs.read("/once", 2), -1);
  EXPECT_EQ(fs.used_bytes(), 0u);
}

TEST(TmpFs, NonBurnFilesSurviveReads) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/keep", 64, 0, /*burn_after_reading=*/false);
  fs.read("/keep", 1);
  fs.read("/keep", 2);
  EXPECT_TRUE(fs.exists("/keep"));
}

TEST(TmpFs, RewriteClearsBurnFlag) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/f", 10, 0, true);
  fs.write("/f", 10, 1, false);  // rewritten without the flag
  fs.read("/f", 2);
  EXPECT_TRUE(fs.exists("/f"));
}

TEST(TmpFs, RewriteThroughAnotherSpellingClearsBurnFlag) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/req/input", 10, 0, true);
  fs.write("//req/./input/", 12, 1, false);  // same file, other spelling
  EXPECT_EQ(fs.file_count(), 1u);
  EXPECT_EQ(fs.read("/req/input", 2), 12);
  EXPECT_TRUE(fs.exists("/req/input"));
}

TEST(TmpFs, BurnFlagFollowsTheLatestWrite) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/f", 10, 0, false);
  fs.write("/f", 10, 1, true);  // re-staged as one-shot
  EXPECT_EQ(fs.read("req/../f", 2), 10);
  EXPECT_FALSE(fs.exists("/f"));  // burned through a relative spelling
  EXPECT_EQ(fs.used_bytes(), 0u);
}

TEST(TmpFs, RemovedBurnFileRewrittenPlainSurvives) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/f", 10, 0, true);
  EXPECT_TRUE(fs.remove("/f"));
  fs.write("/f", 10, 1, false);
  fs.read("/f", 2);
  EXPECT_TRUE(fs.exists("/f"));
}

TEST(TmpFs, PeakTracksHighWater) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/a", 200, 0);
  fs.write("/b", 300, 0);
  fs.remove("/a");
  fs.remove("/b");
  EXPECT_EQ(fs.used_bytes(), 0u);
  EXPECT_EQ(fs.peak_bytes(), 500u);
}

TEST(TmpFs, TransferTimeMatchesBandwidth) {
  TmpFs fs("t", 1 << 30, 1024.0);  // 1 GiB/s
  // 1 MiB at 1 GiB/s = ~976.6 µs.
  const sim::SimDuration t = fs.transfer_time(1024 * 1024);
  EXPECT_NEAR(static_cast<double>(t), 976.6, 2.0);
}

TEST(TmpFs, ByteCounters) {
  TmpFs fs("t", 1024, 1000.0);
  fs.write("/a", 100, 0);
  fs.write("/b", 50, 0);
  fs.read("/a", 1);
  EXPECT_EQ(fs.bytes_written(), 150u);
  EXPECT_EQ(fs.bytes_read(), 100u);
}

TEST(TmpFs, RemoveUnknownFails) {
  TmpFs fs("t", 1024, 1000.0);
  EXPECT_FALSE(fs.remove("/nope"));
}

}  // namespace
}  // namespace rattrap::fs
