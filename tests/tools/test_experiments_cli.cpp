// CLI contract for tools/experiments: golden determinism (same manifest
// + seed => byte-identical summary fingerprint, regardless of worker
// count), teeth (a tripped expect.* criterion or a manifest typo must
// exit nonzero — CI gates on this), and strict flag parsing.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cli_test_util.hpp"

namespace rattrap::clitest {
namespace {

const std::string kBin = RATTRAP_EXPERIMENTS_BIN;

std::string write_manifest(const std::string& name,
                           const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << body;
  return path;
}

// Two tiny experiments (3 runs total) so the sweep finishes in well
// under a second while still exercising a grid axis and a handoff.
const char* kMiniManifest =
    "[mini-sweep]\n"
    "scenario = smoke\n"
    "quick = true\n"
    "arrival = poisson\n"
    "rate = 40\n"
    "devices = 10\n"
    "requests = 80\n"
    "seed = 1|2\n"
    "expect.accounting = identity\n"
    "expect.max.invariant_violations = 0\n"
    "\n"
    "[mini-handoff]\n"
    "scenario = handoff\n"
    "quick = true\n"
    "arrival = poisson\n"
    "link = lan\n"
    "rate = 40\n"
    "devices = 20\n"
    "requests = 200\n"
    // Past the ~2 s env cold-boot so LAN completes some requests first.
    "handoff = 3g:3.5:0.5\n"
    "seed = 5\n"
    "expect.accounting = identity\n"
    "expect.min.handoffs = 1\n"
    "expect.min.radio_slices = 2\n";

TEST(ExperimentsCli, ListsBuiltinQuickSubset) {
  const CommandResult result = run_command(kBin + " --list --quick");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(result.contains("runs across")) << result.output;
  EXPECT_TRUE(result.contains("handoff-wifi-3g/")) << result.output;
  // saturation-grid is quick=false and must not appear in quick mode.
  EXPECT_FALSE(result.contains("saturation-grid")) << result.output;
}

TEST(ExperimentsCli, PrintManifestEmitsTheBuiltinMatrix) {
  const CommandResult result = run_command(kBin + " --print-manifest");
  ASSERT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.contains("[trace-replay-day]"));
  EXPECT_TRUE(result.contains("expect.accounting = identity"));
}

TEST(ExperimentsCli, UnknownFlagExitsWithUsage) {
  const CommandResult result = run_command(kBin + " --bogus-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("usage:")) << result.output;
}

TEST(ExperimentsCli, MalformedManifestRejected) {
  const std::string path = write_manifest(
      "broken.ini", "[x]\nthis line has no equals sign\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --list");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(ExperimentsCli, UnknownManifestKeyIsATypoNotADefault) {
  // A misspelled key must fail the run, never silently fall back to the
  // default value it was trying to override.
  const std::string path = write_manifest(
      "typo.ini",
      "[x]\nquick = true\nratee = 50\nrequests = 50\n"
      "expect.accounting = identity\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "typo-out");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_TRUE(result.contains("ratee")) << result.output;
}

TEST(ExperimentsCli, GoldenDeterminismAcrossRunsAndWorkerCounts) {
  const std::string manifest = write_manifest("mini.ini", kMiniManifest);
  const std::string out_a = ::testing::TempDir() + "mini-out-a";
  const std::string out_b = ::testing::TempDir() + "mini-out-b";
  const CommandResult first = run_command(
      kBin + " --manifest " + manifest + " --quick --jobs 1 --out " + out_a);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  const CommandResult second = run_command(
      kBin + " --manifest " + manifest + " --quick --jobs 4 --out " + out_b);
  ASSERT_EQ(second.exit_code, 0) << second.output;

  const std::string fingerprint =
      extract_value(first.output, "summary_fingerprint");
  ASSERT_FALSE(fingerprint.empty()) << first.output;
  EXPECT_EQ(extract_value(second.output, "summary_fingerprint"),
            fingerprint);

  const std::string summary_a = read_file(out_a + "/summary.json");
  const std::string summary_b = read_file(out_b + "/summary.json");
  ASSERT_FALSE(summary_a.empty());
  EXPECT_EQ(summary_a, summary_b);  // byte-identical artifacts
}

TEST(ExperimentsCli, SweepEmitsPerRunAndSummaryArtifacts) {
  const std::string manifest = write_manifest("mini2.ini", kMiniManifest);
  const std::string out = ::testing::TempDir() + "mini-out-c";
  const CommandResult result = run_command(
      kBin + " --manifest " + manifest + " --quick --out " + out);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_FALSE(read_file(out + "/summary.csv").empty());
  EXPECT_FALSE(read_file(out + "/summary.md").empty());
  const std::string run_json =
      read_file(out + "/mini-sweep/seed=1/run.json");
  EXPECT_TRUE(run_json.find("\"metrics\"") != std::string::npos)
      << run_json;
}

TEST(ExperimentsCli, TrippedCriterionFailsTheSweep) {
  // The CI gate's teeth: an impossible expectation must turn into a
  // nonzero exit, not a cosmetic note in the summary.
  const std::string path = write_manifest(
      "teeth.ini",
      "[impossible]\n"
      "quick = true\n"
      "arrival = poisson\n"
      "rate = 40\n"
      "devices = 10\n"
      "requests = 60\n"
      "seed = 1\n"
      "expect.min.completed_share = 2\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "teeth-out");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_TRUE(result.contains("FAIL")) << result.output;
}

// The fault-injection teeth-check: with crash recovery off, sessions
// strand on dead environments and the invariant oracle must trip.
std::string crash_manifest(const std::string& recovery) {
  return "[crash-teeth]\n"
         "quick = true\n"
         "arrival = poisson\n"
         "rate = 0.5\n"
         "devices = 6\n"
         "requests = 40\n"
         "faults = container.crash:p=0.1\n"
         "crash_recovery = " + recovery + "\n"
         "seed = 1\n"
         "expect.accounting = identity\n"
         "expect.max.invariant_violations = 0\n";
}

TEST(ExperimentsCli, CrashRecoveryOffTripsTheInvariantGate) {
  const std::string path =
      write_manifest("crash-off.ini", crash_manifest("off"));
  const std::string out = ::testing::TempDir() + "crash-off-out";
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " + out);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  // run.json names the violated invariant, so a red gate is diagnosable
  // without re-running anything.
  const std::string run_json = read_file(out + "/crash-teeth/base/run.json");
  EXPECT_TRUE(run_json.find("\"first_violation\": \"session-env-liveness") !=
              std::string::npos)
      << run_json;
}

TEST(ExperimentsCli, CrashRecoveryOnRecordsNoViolation) {
  const std::string path = write_manifest("crash-on.ini", crash_manifest("on"));
  const std::string out = ::testing::TempDir() + "crash-on-out";
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " + out);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string run_json = read_file(out + "/crash-teeth/base/run.json");
  EXPECT_FALSE(run_json.empty());
  EXPECT_EQ(run_json.find("first_violation"), std::string::npos) << run_json;
}

TEST(ExperimentsCli, CrashRecoveryValueIsStrict) {
  const std::string path =
      write_manifest("crash-maybe.ini", crash_manifest("maybe"));
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "crash-maybe-out");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_TRUE(result.contains("crash_recovery")) << result.output;
}

TEST(ExperimentsCli, BuiltinFaultSweepCoversThreePlansTimesTenSeeds) {
  const CommandResult result =
      run_command(kBin + " --list --experiment fault-sweep");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(result.contains("30 runs across 1 experiments"))
      << result.output;
  // quick = false: the CI quick subset and its fingerprint are untouched.
  const CommandResult quick = run_command(kBin + " --list --quick");
  EXPECT_FALSE(quick.contains("fault-sweep")) << quick.output;
}

TEST(ExperimentsCli, UnknownCriterionMetricFails) {
  const std::string path = write_manifest(
      "badcrit.ini",
      "[x]\n"
      "quick = true\n"
      "requests = 60\n"
      "seed = 1\n"
      "expect.min.no_such_metric = 1\n");
  const CommandResult result =
      run_command(kBin + " --manifest " + path + " --quick --out " +
                  ::testing::TempDir() + "badcrit-out");
  EXPECT_NE(result.exit_code, 0);
}

TEST(ExperimentsCli, TraceKeysAreParsedAndCheckedEvenWhenUnused) {
  // Every present key is parsed, and the trace-source keys obey two
  // cross-key rules: they need arrival = trace, and trace_file excludes
  // the synthetic trace_* keys.  Each of these sections used to pass.
  const std::string trace = ::testing::TempDir() + "tiny-trace.csv";
  std::ofstream(trace) << "user,timestamp_us\n1,0\n2,500000\n1,900000\n";
  const std::string common =
      "quick = true\ndevices = 4\nrequests = 20\nseed = 1\n"
      "expect.accounting = identity\n";
  const struct {
    const char* name;
    std::string body;
    const char* key;
  } cases[] = {
      {"unused-trace",
       "arrival = poisson\ntrace_file = /nonexistent/trace.csv\n"
       "trace_users = abc\n",
       "trace_users"},
      {"poisson-trace-file",
       "arrival = poisson\ntrace_file = /nonexistent/trace.csv\n",
       "trace_file"},
      {"file-with-bad-synthetic",
       "arrival = trace\ntrace_file = " + trace + "\ntrace_days = abc\n",
       "trace_days"},
      {"file-with-synthetic",
       "arrival = trace\ntrace_file = " + trace + "\ntrace_seed = 9\n",
       "trace_seed"},
  };
  for (const auto& c : cases) {
    const std::string path = write_manifest(
        std::string(c.name) + ".ini",
        std::string("[") + c.name + "]\n" + common + c.body);
    const CommandResult result =
        run_command(kBin + " --manifest " + path + " --quick --out " +
                    ::testing::TempDir() + c.name + "-out");
    EXPECT_NE(result.exit_code, 0) << c.name << "\n" << result.output;
    EXPECT_TRUE(result.contains(c.key)) << c.name << "\n" << result.output;
  }
}

TEST(ExperimentsCli, BuiltinTraceSectionsPassTheTraceRules) {
  // The two built-in trace sections are the ones the trace rules touch.
  // Run from the source root: trace-replay-file names a repo-relative
  // sample trace.
  const CommandResult result = run_command(
      std::string("cd ") + RATTRAP_SOURCE_DIR + " && " + kBin +
      " --experiment trace-replay-day --experiment trace-replay-file"
      " --quick --out " + ::testing::TempDir() + "builtin-trace-out");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

}  // namespace
}  // namespace rattrap::clitest
