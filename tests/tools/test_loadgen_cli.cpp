// CLI contract for tools/loadgen: unrecognized flags and malformed
// values must exit nonzero with usage on stderr (they used to be
// silently swallowed by atof/atoi), and a valid run stays deterministic
// across invocations.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_test_util.hpp"

namespace rattrap::clitest {
namespace {

const std::string kBin = RATTRAP_LOADGEN_BIN;

/// The literal after `"key": ` in a run.json, or "".
std::string json_value(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  return json.substr(start, json.find_first_of(",\n", start) - start);
}

/// The value of `key=` inside the first output line holding it, cut at
/// the next space.
std::string field(const std::string& output, const std::string& key) {
  const std::string value = extract_value(output, key);
  return value.substr(0, value.find(' '));
}

TEST(LoadgenCli, UnknownFlagExitsWithUsage) {
  const CommandResult result = run_command(kBin + " --bogus-flag");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("usage:")) << result.output;
}

TEST(LoadgenCli, MalformedNumericValueRejected) {
  const CommandResult result = run_command(kBin + " --rate abc");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--rate")) << result.output;
}

TEST(LoadgenCli, NonPositiveRateRejected) {
  // Left to run, mmpp at rate 0 never draws an arrival and Poisson
  // silently floors a negative rate at 1/s.
  for (const char* rate : {"0", "-1", "-0.5"}) {
    const CommandResult result =
        run_command(kBin + " --devices 5 --requests 20 --rate " + rate);
    EXPECT_EQ(result.exit_code, 2) << rate;
    EXPECT_TRUE(result.contains("bad value for --rate")) << result.output;
  }
}

TEST(LoadgenCli, TrailingGarbageInNumericRejected) {
  // atoi-style prefix parsing would read "10x" as 10; the strict parser
  // must reject the whole token.
  const CommandResult result = run_command(kBin + " --requests 10x");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--requests")) << result.output;
}

TEST(LoadgenCli, NegativeUnsignedRejected) {
  const CommandResult result = run_command(kBin + " --devices -5");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(LoadgenCli, MalformedMixRejected) {
  const CommandResult bad_class =
      run_command(kBin + " --mix gold:nosuchclass");
  EXPECT_EQ(bad_class.exit_code, 2);
  const CommandResult bad_weight =
      run_command(kBin + " --mix gold:interactive:zero");
  EXPECT_EQ(bad_weight.exit_code, 2);
}

TEST(LoadgenCli, UnknownProfileRejected) {
  const CommandResult result = run_command(kBin + " --profile wavy");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(LoadgenCli, TraceArrivalRequiresTraceFile) {
  const CommandResult result = run_command(kBin + " --arrival trace");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--trace-file")) << result.output;
}

TEST(LoadgenCli, TraceFileRequiresTraceArrival) {
  const CommandResult result =
      run_command(kBin + " --trace-file /tmp/whatever.csv");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(LoadgenCli, MissingTraceFileExitsNonzero) {
  const CommandResult result = run_command(
      kBin + " --arrival trace --trace-file /nonexistent/trace.csv");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(LoadgenCli, UnknownTransportRejected) {
  const CommandResult result = run_command(kBin + " --transport carrier");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--transport")) << result.output;
}

TEST(LoadgenCli, RpcTransportRequiresOpenLoopArrival) {
  // A closed-loop observer cannot cross the wire (docs/RPC.md).
  const CommandResult result =
      run_command(kBin + " --transport rpc --arrival closed");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("open-loop")) << result.output;
}

TEST(LoadgenCli, RpcTransportMatchesSimFingerprint) {
  // The sim-twin guarantee as a CLI contract: the same workload through
  // a real loopback socket produces the byte-identical server-platform
  // metrics fingerprint (docs/RPC.md).
  const std::string common = " --devices 5 --requests 80 --rate 50 --seed 3";
  const CommandResult sim = run_command(kBin + common + " --transport sim");
  ASSERT_EQ(sim.exit_code, 0) << sim.output;
  const CommandResult rpc = run_command(kBin + common + " --transport rpc");
  ASSERT_EQ(rpc.exit_code, 0) << rpc.output;
  const std::string fingerprint =
      extract_value(sim.output, "metrics_fingerprint");
  EXPECT_FALSE(fingerprint.empty()) << sim.output;
  EXPECT_EQ(extract_value(rpc.output, "metrics_fingerprint"), fingerprint);
  EXPECT_EQ(extract_value(rpc.output, "accounting_identity"), "ok")
      << rpc.output;
}

TEST(LoadgenCli, SmallRunSucceedsAndIsDeterministic) {
  const std::string command =
      kBin + " --devices 5 --requests 60 --rate 50 --seed 7";
  const CommandResult first = run_command(command);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  const std::string fingerprint =
      extract_value(first.output, "metrics_fingerprint");
  EXPECT_FALSE(fingerprint.empty()) << first.output;

  const CommandResult second = run_command(command);
  ASSERT_EQ(second.exit_code, 0);
  EXPECT_EQ(extract_value(second.output, "metrics_fingerprint"),
            fingerprint);
}

TEST(LoadgenCli, CrashRecoveryOffTripsTheInvariantOracle) {
  // The oracle is armed by default: sessions stranded on crashed
  // environments must turn into a violation count and exit 1.
  const std::string common =
      " --faults container.crash:p=0.2 --devices 6 --requests 40"
      " --rate 0.5 --seed 1";
  const CommandResult off =
      run_command(kBin + common + " --crash-recovery off");
  EXPECT_EQ(off.exit_code, 1) << off.output;
  EXPECT_NE(extract_value(off.output, "invariant_violations"), "0")
      << off.output;
  EXPECT_TRUE(off.contains("first_violation=session-env-liveness"))
      << off.output;

  const CommandResult on = run_command(kBin + common);
  EXPECT_EQ(on.exit_code, 0) << on.output;
  EXPECT_EQ(extract_value(on.output, "invariant_violations"), "0")
      << on.output;
  EXPECT_FALSE(on.contains("first_violation")) << on.output;
}

TEST(LoadgenCli, FlagsAndManifestSectionRunTheSameConfig) {
  // One key set through both front ends of the run-config table.
  const std::string flags =
      " --faults net.drop:p=0.02 --faults container.crash:p=0.01"
      " --elastic predictive --qos"
      " --mix victim:interactive:2:0.6 --mix prober:standard:1:0.4:probe"
      " --devices 20 --requests 200 --rate 20 --seed 3";
  const CommandResult loadgen = run_command(kBin + flags);
  ASSERT_EQ(loadgen.exit_code, 0) << loadgen.output;

  const std::string manifest = ::testing::TempDir() + "twin.ini";
  std::ofstream(manifest)
      << "[twin]\n"
         "faults = net.drop:p=0.02;container.crash:p=0.01\n"
         "elastic = predictive\n"
         "qos = on\n"
         "mix = victim:interactive:2:0.6;prober:standard:1:0.4:probe\n"
         "devices = 20\n"
         "requests = 200\n"
         "rate = 20\n"
         "seed = 3\n";
  const std::string out = ::testing::TempDir() + "twin-out";
  const CommandResult experiments =
      run_command(std::string(RATTRAP_EXPERIMENTS_BIN) + " --manifest " +
                  manifest + " --out " + out);
  ASSERT_EQ(experiments.exit_code, 0) << experiments.output;
  const std::string run = read_file(out + "/twin/base/run.json");
  ASSERT_FALSE(json_value(run, "offered").empty()) << run;

  EXPECT_EQ(field(loadgen.output, "requests"), json_value(run, "offered"));
  EXPECT_EQ(field(loadgen.output, "completed"),
            json_value(run, "completed"));
  EXPECT_EQ(field(loadgen.output, "rejected"), json_value(run, "rejected"));
  EXPECT_EQ(field(loadgen.output, "invariant_violations"),
            json_value(run, "invariant_violations"));
  char p99[32];
  std::snprintf(p99, sizeof(p99), "%.1f",
                std::stod(json_value(run, "p99_ms")));
  EXPECT_EQ(field(loadgen.output, "p99"), p99);
  EXPECT_NE(json_value(run, "faults_fired"), "0") << run;
}

TEST(LoadgenCli, ElasticTargetAboveItsCeilingRejected) {
  // elastic::clamp_target would boot a 64-environment pool instead.
  const CommandResult result =
      run_command(kBin + " --elastic static --elastic-target 65");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_TRUE(result.contains("--elastic-target")) << result.output;
}

TEST(LoadgenCli, EveryHelpKeyIsInTheExperimentsKeyReference) {
  const std::string reference =
      read_file(std::string(RATTRAP_SOURCE_DIR) + "/EXPERIMENTS.md");
  ASSERT_FALSE(reference.empty());
  // loadgen and rattrap list the one key table, each plus its own flags.
  for (const std::string& bin : {kBin, std::string(RATTRAP_CLI_BIN)}) {
    const CommandResult help = run_command(bin + " --help");
    ASSERT_EQ(help.exit_code, 0);
    std::istringstream lines(help.output);
    std::size_t keys = 0;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("  --", 0) != 0) continue;
      std::string key = line.substr(4, line.find(' ', 4) - 4);
      if (key == "transport" || key == "json" || key == "help" ||
          key == "csv" || key == "metrics-out" || key == "trace-out") {
        continue;
      }
      for (char& c : key) c = c == '-' ? '_' : c;
      ++keys;
      EXPECT_NE(reference.find("`" + key + "`"), std::string::npos)
          << key << " is missing from EXPERIMENTS.md";
    }
    EXPECT_EQ(keys, 49u) << help.output;
  }
}

}  // namespace
}  // namespace rattrap::clitest
