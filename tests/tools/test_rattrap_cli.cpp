// CLI contract for tools/rattrap_sim (the `rattrap` binary): malformed
// numbers, unknown networks and an over-cap warm pool must exit 2 with a
// message naming the flag (strtoul/strtod used to accept them silently),
// and a valid run stays deterministic across invocations.
#include <gtest/gtest.h>

#include <string>

#include "cli_test_util.hpp"

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
  const CommandResult result = run_command(kBin + " --count 3x");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--count")) << result.output;
}

TEST(RattrapCli, MalformedGapRejected) {
  // strtod would read "abc" as a gap of 0.
  const CommandResult result = run_command(kBin + " --gap abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--gap")) << result.output;
}

TEST(RattrapCli, NegativeDevicesRejected) {
  // strtoul would wrap -1 to 4294967295 devices.
  const CommandResult result = run_command(kBin + " --devices -1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--devices")) << result.output;
}

TEST(RattrapCli, UnknownNetworkRejected) {
  // Used to print "using LAN", label the run BOGUS and exit 0.
  const CommandResult result = run_command(kBin + " --net BOGUS");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("BOGUS")) << result.output;
}

TEST(RattrapCli, WarmPoolAboveElasticCapRejected) {
  // The pool is sized by the elastic clamp (max_warm 64); asking for more
  // must fail rather than silently boot a smaller pool.
  const CommandResult result = run_command(kBin + " --warm-pool 65");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--warm-pool")) << result.output;
}

TEST(RattrapCli, SmallRunSucceedsAndIsDeterministic) {
  const std::string command =
      kBin + " --workload linpack --count 4 --devices 2 --net WAN "
             "--warm-pool 2";
  const CommandResult first = run_command(command);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_TRUE(first.contains("| WAN |")) << first.output;  // run label
  const CommandResult second = run_command(command);
  ASSERT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.output, first.output);
}

}  // namespace
}  // namespace rattrap::clitest
