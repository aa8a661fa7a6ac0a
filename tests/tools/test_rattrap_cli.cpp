// CLI contract for tools/rattrap_sim (the `rattrap` binary): its flags
// are the run-config keys, so malformed numbers, unknown links and an
// over-cap warm pool must exit 2 with a message naming the key
// (strtoul/strtod used to accept them silently), a valid run stays
// deterministic across invocations, and the same keys run the same
// platform as loadgen.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cli_test_util.hpp"
#include "cli_util.hpp"

namespace rattrap::clitest {
namespace {

const std::string kBin = RATTRAP_CLI_BIN;

TEST(RattrapCli, UnknownFlagExitsWithUsage) {
  const CommandResult result = run_command(kBin + " --bogus-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("usage:")) << result.output;
}

TEST(RattrapCli, TrailingGarbageInCountRejected) {
  // strtoull would read "3x" as 3 and run three requests.
  const CommandResult result = run_command(kBin + " --requests 3x");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--requests")) << result.output;
}

TEST(RattrapCli, MalformedGapRejected) {
  // strtod would read "abc" as a rate of 0.
  const CommandResult result = run_command(kBin + " --rate abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--rate")) << result.output;
}

TEST(RattrapCli, NegativeDevicesRejected) {
  // strtoul would wrap -1 to 4294967295 devices.
  const CommandResult result = run_command(kBin + " --devices -1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--devices")) << result.output;
}

TEST(RattrapCli, UnknownNetworkRejected) {
  // Used to print "using LAN", label the run BOGUS and exit 0.
  const CommandResult result = run_command(kBin + " --link BOGUS");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("BOGUS")) << result.output;
}

TEST(RattrapCli, WarmPoolAboveElasticCapRejected) {
  // The pool is sized by the elastic clamp (max_warm 64); asking for more
  // must fail rather than silently boot a smaller pool.
  const CommandResult result = run_command(kBin + " --elastic-target 65");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--elastic-target")) << result.output;
}

TEST(RattrapCli, SmallRunSucceedsAndIsDeterministic) {
  const std::string command =
      kBin + " --kind linpack --requests 4 --devices 2 --link wan "
             "--elastic-target 2";
  const CommandResult first = run_command(command);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_TRUE(first.contains("| WAN |")) << first.output;  // run label
  const CommandResult second = run_command(command);
  ASSERT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.output, first.output);
}

TEST(RattrapCli, SameKeysAsLoadgenGiveTheSameMetricsFingerprint) {
  // One run path: rattrap's metrics JSON, hashed the way loadgen prints
  // its fingerprint, matches loadgen's for the same keys.
  const std::string keys =
      " --kind ocr --devices 4 --requests 12 --rate 0.5 --seed 42"
      " --elastic-target 2 --faults net.drop:p=0.05";
  const std::string metrics = ::testing::TempDir() + "rattrap-twin.json";
  const CommandResult rattrap =
      run_command(kBin + keys + " --metrics-out " + metrics);
  ASSERT_EQ(rattrap.exit_code, 0) << rattrap.output;
  const CommandResult loadgen =
      run_command(std::string(RATTRAP_LOADGEN_BIN) + keys);
  ASSERT_EQ(loadgen.exit_code, 0) << loadgen.output;
  const std::string json = read_file(metrics);
  ASSERT_FALSE(json.empty());
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(cli::fingerprint64(json)));
  EXPECT_EQ(extract_value(loadgen.output, "metrics_fingerprint"),
            fingerprint);
}

}  // namespace
}  // namespace rattrap::clitest
