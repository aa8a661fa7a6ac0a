// experiments — named-experiment sweep driver (EXPERIMENTS.md).
//
// Enumerates the parameter grids of an experiment manifest (loadgen
// profile × fault plan × QoS mix × capacity mode × mobility plan), runs
// every grid point in parallel worker processes, and reduces the results
// to per-run JSON/CSV artifacts plus a machine-readable summary with
// pass/fail criteria per experiment — the artifact the CI
// experiment-matrix gate consumes:
//
//   experiments --quick --out experiments-out        # curated CI subset
//   experiments --manifest sweeps.ini --jobs 8       # full custom sweep
//   experiments --list                               # what would run
//   experiments --print-manifest > my.ini            # builtin as a seed
//
// Exit code: 0 every experiment passed, 1 any criterion tripped or a
// worker failed, 2 usage/manifest errors.  The summary fingerprint
// printed at the end hashes summary.json — same manifest + same seeds ⇒
// byte-identical summary, checkable from a shell.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

#include "../cli_util.hpp"
#include "manifest.hpp"
#include "scenario.hpp"

using namespace rattrap;
using namespace rattrap::experiments;

namespace {

/// Curated built-in manifest: the CI quick subset covers every scenario
/// family (trace replay, flash crowd, fault storm, mobility handoff) in
/// a couple of minutes; full mode scales the same experiments up and
/// adds the non-quick sweeps.
constexpr const char* kBuiltinManifest = R"(# Built-in curated experiment matrix (tools/experiments --print-manifest).
# Key reference: EXPERIMENTS.md.  '|' separates grid-axis values.

[trace-replay-day]
scenario = trace-replay
quick = true
arrival = trace
trace_users = 16
trace_days = 1
trace_sessions_per_day = 24
trace_seed = 7
trace_scale = 0.01
devices = 50
requests = 400
full.requests = 4000
seed = 1|2
expect.accounting = identity
expect.max.invariant_violations = 0
expect.min.completed_share = 0.9

[trace-replay-file]
scenario = trace-replay
quick = true
arrival = trace
trace_file = tests/data/livelab_sample.csv
trace_scale = 0.02
trace_repeat = 1|2
devices = 40
requests = 300
seed = 3
expect.accounting = identity
expect.max.invariant_violations = 0
expect.min.completed_share = 0.9

[flash-crowd-diurnal]
scenario = flash-crowd
quick = true
arrival = poisson
profile = diurnal
profile_period = 120
profile_peak = 3
rate = 25
flash_at = 45
flash_duration = 10
flash_factor = 6
devices = 150
requests = 600
full.requests = 6000
admission = on
queue = 96
shed = 8
seed = 1|2
expect.accounting = identity
expect.max.invariant_violations = 0
expect.min.completed_share = 0.5

[fault-storm-rack]
scenario = fault-storm
quick = true
arrival = poisson
rate = 60
devices = 80
requests = 500
faults = net.drop:p=0.02
storm_crashes = 4
storm_at = 2
storm_spacing = 0.1
seed = 1|2
expect.accounting = identity
expect.min.faults_fired = 4
expect.max.invariant_violations = 0

[handoff-wifi-3g]
scenario = handoff
quick = true
arrival = poisson
link = lan
rate = 40
devices = 60
requests = 400
handoff = 3g:4:1.5
seed = 1|2
expect.accounting = identity
expect.min.handoffs = 1
expect.min.radio_slices = 2
expect.min.radio_transfer_ratio = 2
expect.min.sessions_resumed = 1
expect.max.invariant_violations = 0

[handoff-4g-bounce]
scenario = handoff
quick = true
arrival = poisson
link = wan
rate = 50
devices = 60
requests = 400
handoff = 4g:3:0.5;wan:6:0.5
seed = 1
expect.accounting = identity
expect.min.handoffs = 2
expect.min.radio_slices = 2
expect.min.sessions_resumed = 1
expect.max.invariant_violations = 0

[qos-fault-cross]
scenario = fault-storm
quick = true
arrival = mmpp
rate = 50
burst_factor = 6
devices = 120
requests = 500
admission = on
qos = on
mix = gold:interactive:3:0.3;silver:standard:2:0.4;bronze:batch:1:0.3
faults = net.drop:p=0.01
seed = 1|2
expect.accounting = identity
expect.max.invariant_violations = 0

[rac-adversary]
scenario = rac-adversary
quick = true
arrival = poisson
rate = 40
devices = 100
requests = 500
full.requests = 2000
admission = on
qos = on
mix = victim:interactive:2:0.3;prober:standard:1:0.2:probe;flooder:interactive:1:0.3:flood;thrasher:batch:1:0.2:thrash
rac_threshold = 4
rac_block_s = 4
rac_quota = 16
tenant_queue_quota = 32
seed = 1|2
expect.accounting = identity
expect.max.invariant_violations = 0
expect.min.rac.violations = 4
expect.min.rac.blocks = 1
expect.min.rac.unblocks = 1
expect.min.rac.denied.blocked = 1
expect.min.tenant.victim.completed = 50
expect.max.tenant.victim.p99_ms = 6000

[saturation-grid]
scenario = flash-crowd
quick = false
arrival = poisson
rate = 50|100|200
devices = 200
requests = 800
admission = on
shed = 8
seed = 1|2
expect.accounting = identity
expect.max.invariant_violations = 0

# Every fault class the injector knows (network misbehaviour, storage
# failures, environment death) across ten seeds, with the invariant
# oracle checking every event.
[fault-sweep]
scenario = fault-sweep
quick = false
arrival = poisson
rate = 0.5
devices = 6
requests = 40
faults = net.drop:p=0.08;net.corrupt:p=0.05;net.delay:p=0.1,delay_ms=400|tmpfs.write_fail:p=0.15;disk.write_fail:p=0.1;cache.evict:p=0.2|container.crash:p=0.06;container.oom:p=0.04;binder.fail:p=0.05;devns.teardown:p=0.1
seed = 1|2|3|4|5|6|7|8|9|10
expect.accounting = identity
expect.min.faults_fired = 1
expect.max.invariant_violations = 0

# 10^5 sessions through network drops and container crashes, recovered
# by re-dispatch onto a predictive warm pool, with the invariant oracle
# checking every event.  Wall time stays linear only while the checks
# cost what each event touched, not the size of the platform.
[fault-storm-scale]
scenario = fault-storm
quick = false
arrival = poisson
rate = 20
devices = 1000
requests = 100000
faults = net.drop:p=0.02;container.crash:p=0.01
crash_recovery = on
elastic = predictive
seed = 1
expect.accounting = identity
expect.max.invariant_violations = 0
)";

void usage() {
  std::puts(
      "usage: experiments [options]\n"
      "  --manifest PATH  experiment manifest (default: built-in matrix)\n"
      "  --quick          run only quick=true experiments at quick scale\n"
      "  --experiment N   run only experiment N (repeatable)\n"
      "  --out DIR        artifact directory (default experiments-out)\n"
      "  --jobs N         parallel worker processes (default: cores, max 8)\n"
      "  --list           print the planned runs and exit\n"
      "  --print-manifest print the built-in manifest and exit\n"
      "  --help");
}

struct Options {
  std::string manifest_path = "@builtin";
  bool quick = false;
  std::vector<std::string> only;
  std::string out = "experiments-out";
  std::uint32_t jobs = 0;
  bool list = false;
  // Internal worker mode (spawned by the parent; not for direct use).
  bool child = false;
  std::string child_name;
  std::uint64_t child_point = 0;
  std::string child_dir;
};

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help") {
      usage();
      std::exit(0);
    } else if (arg == "--print-manifest") {
      std::fputs(kBuiltinManifest, stdout);
      std::exit(0);
    } else if (arg == "--manifest") {
      const char* v = next();
      if (v == nullptr) return false;
      options.manifest_path = v;
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--full") {
      options.quick = false;
    } else if (arg == "--experiment") {
      const char* v = next();
      if (v == nullptr) return false;
      options.only.emplace_back(v);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.out = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !cli::parse_u32(v, options.jobs) ||
          options.jobs == 0) {
        std::fprintf(stderr, "--jobs needs a positive integer\n");
        return false;
      }
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--child") {
      options.child = true;
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) return false;
      options.child_name = v;
    } else if (arg == "--point") {
      const char* v = next();
      if (v == nullptr || !cli::parse_u64(v, options.child_point)) {
        return false;
      }
    } else if (arg == "--dir") {
      const char* v = next();
      if (v == nullptr) return false;
      options.child_dir = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return text;
}

bool mkdir_p(const std::string& path) {
  std::string partial;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    partial = path.substr(0, i);
    if (partial.empty() || partial == ".") continue;
    if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  if (!path.empty() && mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return false;
  }
  return true;
}

std::optional<Manifest> load_manifest(const std::string& path,
                                      std::string& error) {
  std::string text;
  if (path == "@builtin") {
    text = kBuiltinManifest;
  } else {
    const auto loaded = read_file(path);
    if (!loaded) {
      error = "cannot read manifest '" + path + "'";
      return std::nullopt;
    }
    text = *loaded;
  }
  return parse_manifest(text, error);
}

/// Worker body: resolve one grid point, execute it, write the per-run
/// artifacts.  Shared between the forked --child mode and the in-process
/// fallback when fork() is unavailable.
int run_child(const Manifest& manifest, const std::string& name,
              std::size_t point, bool quick, const std::string& dir) {
  const Experiment* experiment = manifest.find(name);
  std::string error;
  if (experiment == nullptr) {
    std::fprintf(stderr, "experiments: no experiment '%s'\n", name.c_str());
    return 3;
  }
  const auto spec = resolve_point(*experiment, point, quick, error);
  if (!spec) {
    std::fprintf(stderr, "experiments: %s: %s\n", name.c_str(),
                 error.c_str());
    return 3;
  }
  if (!mkdir_p(dir)) {
    std::fprintf(stderr, "experiments: cannot create %s\n", dir.c_str());
    return 3;
  }
  const RunResult result = execute_run(*spec);
  if (!result.ok) {
    (void)obs::write_text_file(dir + "/run.kv",
                               "error=" + result.error + "\n");
    std::fprintf(stderr, "experiments: %s\n", result.error.c_str());
    return 3;
  }
  if (!obs::write_text_file(dir + "/run.json", result.to_json(*spec)) ||
      !obs::write_text_file(dir + "/run.kv", result.to_kv())) {
    std::fprintf(stderr, "experiments: cannot write artifacts in %s\n",
                 dir.c_str());
    return 3;
  }
  return 0;
}

// -- Parent-side result handling ----------------------------------------

struct PlannedRun {
  std::string experiment;
  std::string scenario;
  std::size_t point = 0;
  RunSpec spec;
  std::string dir;
};

/// A finished run as the parent sees it: metric values kept as the
/// child's literal strings (emitted via json_number) so re-serializing
/// them into the summary is byte-stable.
struct RunOutcome {
  bool ran = false;
  std::string error;
  std::vector<std::pair<std::string, std::string>> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  [[nodiscard]] const std::string* metric(std::string_view name) const {
    for (const auto& [key, value] : metrics) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

RunOutcome parse_kv(const std::string& text) {
  RunOutcome outcome;
  bool saw_ok = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i != text.size() && text[i] != '\n') continue;
    const std::string line = text.substr(start, i - start);
    start = i + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "ok" && value == "1") saw_ok = true;
    else if (key == "error") outcome.error = value;
    else if (key.rfind("m.", 0) == 0) {
      outcome.metrics.emplace_back(key.substr(2), value);
    } else if (key.rfind("i.", 0) == 0) {
      outcome.info.emplace_back(key.substr(2), value);
    }
  }
  outcome.ran = saw_ok && outcome.error.empty();
  return outcome;
}

struct CriterionResult {
  std::string check;   ///< "min.completed_share", "accounting", ...
  std::string bound;   ///< manifest value
  std::string value;   ///< observed metric literal ("" when missing)
  bool pass = false;
  std::string note;
};

std::vector<CriterionResult> evaluate_criteria(const RunSpec& spec,
                                               const RunOutcome& outcome) {
  std::vector<CriterionResult> results;
  for (const auto& [check, bound] : spec.expect) {
    CriterionResult r;
    r.check = check;
    r.bound = bound;
    if (!outcome.ran) {
      r.note = outcome.error.empty() ? "worker failed" : outcome.error;
      results.push_back(std::move(r));
      continue;
    }
    const auto compare = [&](const std::string& metric_name, bool is_min,
                             double bound_value) {
      const std::string* literal = outcome.metric(metric_name);
      if (literal == nullptr) {
        r.note = "no metric '" + metric_name + "'";
        return;
      }
      r.value = *literal;
      double observed = 0;
      if (!cli::parse_double(*literal, observed)) {
        r.note = "unparseable metric value";
        return;
      }
      r.pass = is_min ? observed >= bound_value : observed <= bound_value;
    };
    if (check == "accounting") {
      if (bound != "identity") {
        r.note = "expect.accounting only supports 'identity'";
      } else {
        compare("accounting_ok", /*is_min=*/true, 1.0);
      }
    } else if (check.rfind("min.", 0) == 0 || check.rfind("max.", 0) == 0) {
      double bound_value = 0;
      if (!cli::parse_double(bound, bound_value)) {
        r.note = "unparseable bound";
      } else {
        compare(check.substr(4), check.rfind("min.", 0) == 0, bound_value);
      }
    } else {
      r.note = "unknown criterion";
    }
    results.push_back(std::move(r));
  }
  return results;
}

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// CSV columns shared by runs.csv and summary.csv.
const std::vector<std::string>& csv_metrics() {
  static const std::vector<std::string> columns = {
      "offered",        "completed",
      "rejected",       "stranded",
      "resumed",        "goodput_per_s",
      "p50_ms",         "p95_ms",
      "p99_ms",         "invariant_violations",
      "faults_fired",   "handoffs",
      "radio_slices",   "radio_transfer_ratio",
      "env_count",      "rac.violations",
      "rac.blocks",     "rac.unblocks",
  };
  return columns;
}

std::string csv_header() {
  std::string line = "experiment,label";
  for (const std::string& column : csv_metrics()) line += "," + column;
  line += ",pass\n";
  return line;
}

std::string csv_row(const PlannedRun& run, const RunOutcome& outcome,
                    bool pass) {
  std::string line = run.experiment + "," + run.spec.label;
  for (const std::string& column : csv_metrics()) {
    const std::string* value = outcome.metric(column);
    line += ",";
    if (value != nullptr) line += *value;
  }
  line += pass ? ",1\n" : ",0\n";
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 2;
  }

  std::string error;
  const auto manifest = load_manifest(options.manifest_path, error);
  if (!manifest) {
    std::fprintf(stderr, "experiments: %s\n", error.c_str());
    return 2;
  }

  if (options.child) {
    return run_child(*manifest, options.child_name,
                     static_cast<std::size_t>(options.child_point),
                     options.quick, options.child_dir);
  }

  // -- Plan --------------------------------------------------------------
  std::vector<PlannedRun> runs;
  std::vector<std::string> selected;  ///< experiment order for reporting
  for (const Experiment& experiment : manifest->experiments) {
    if (!options.only.empty()) {
      bool wanted = false;
      for (const std::string& name : options.only) {
        wanted = wanted || name == experiment.name;
      }
      if (!wanted) continue;
    }
    if (options.quick && !experiment.flag("quick", false)) continue;
    const std::size_t total = grid_size(experiment, error);
    if (total == 0) {
      std::fprintf(stderr, "experiments: [%s] %s\n",
                   experiment.name.c_str(), error.c_str());
      return 2;
    }
    selected.push_back(experiment.name);
    for (std::size_t point = 0; point < total; ++point) {
      const auto spec =
          resolve_point(experiment, point, options.quick, error);
      if (!spec) {
        std::fprintf(stderr, "experiments: [%s] %s\n",
                     experiment.name.c_str(), error.c_str());
        return 2;
      }
      PlannedRun run;
      run.experiment = experiment.name;
      const std::vector<std::string>* scenario = experiment.find("scenario");
      run.scenario = scenario == nullptr ? "" : scenario->front();
      run.point = point;
      run.spec = *spec;
      run.dir = options.out + "/" + experiment.name + "/" +
                sanitize_label(spec->label);
      runs.push_back(std::move(run));
    }
  }
  if (runs.empty()) {
    std::fprintf(stderr, "experiments: nothing selected to run\n");
    return 2;
  }

  if (options.list) {
    for (const PlannedRun& run : runs) {
      std::printf("%s/%s\n", run.experiment.c_str(), run.spec.label.c_str());
    }
    std::printf("%zu runs across %zu experiments\n", runs.size(),
                selected.size());
    return 0;
  }

  if (!mkdir_p(options.out)) {
    std::fprintf(stderr, "experiments: cannot create %s\n",
                 options.out.c_str());
    return 2;
  }

  std::uint32_t jobs = options.jobs;
  if (jobs == 0) {
    const long cores = sysconf(_SC_NPROCESSORS_ONLN);
    jobs = cores < 1 ? 1 : static_cast<std::uint32_t>(cores);
    jobs = std::min<std::uint32_t>(jobs, 8);
  }
  std::printf("experiments: %zu runs across %zu experiments, %u workers "
              "(%s mode)\n",
              runs.size(), selected.size(), jobs,
              options.quick ? "quick" : "full");

  // -- Execute (parallel fork/exec worker pool) --------------------------
  const std::string binary = self_exe(argv[0]);
  std::vector<int> exit_codes(runs.size(), -1);
  std::map<pid_t, std::size_t> running;
  std::size_t next = 0;
  std::size_t finished = 0;
  while (finished < runs.size()) {
    while (next < runs.size() && running.size() < jobs) {
      const PlannedRun& run = runs[next];
      const std::string point = std::to_string(run.point);
      const pid_t pid = fork();
      if (pid == 0) {
        const char* args[] = {binary.c_str(),
                              "--child",
                              "--manifest",
                              options.manifest_path.c_str(),
                              "--name",
                              run.experiment.c_str(),
                              "--point",
                              point.c_str(),
                              "--dir",
                              run.dir.c_str(),
                              options.quick ? "--quick" : "--full",
                              nullptr};
        execv(binary.c_str(), const_cast<char**>(args));
        _exit(127);
      }
      if (pid < 0) {
        // fork unavailable: degrade to running this point in-process.
        exit_codes[next] = run_child(*manifest, run.experiment, run.point,
                                     options.quick, run.dir);
        ++finished;
      } else {
        running[pid] = next;
      }
      ++next;
    }
    if (running.empty()) continue;
    int status = 0;
    const pid_t done = waitpid(-1, &status, 0);
    if (done < 0) continue;
    const auto it = running.find(done);
    if (it == running.end()) continue;
    const std::size_t index = it->second;
    running.erase(it);
    exit_codes[index] =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    ++finished;
    std::printf("  [%zu/%zu] %s/%s %s\n", finished, runs.size(),
                runs[index].experiment.c_str(),
                runs[index].spec.label.c_str(),
                exit_codes[index] == 0 ? "done" : "FAILED");
    std::fflush(stdout);
  }

  // -- Reduce (deterministic order: manifest order, then point order) ----
  std::string summary_json = "{\n  \"schema\": 1,\n  \"mode\": ";
  summary_json += options.quick ? "\"quick\"" : "\"full\"";
  summary_json += ",\n  \"experiments\": [";
  std::string summary_csv = csv_header();
  std::string summary_md =
      "| experiment | run | completed/offered | p99 ms | verdict |\n"
      "|---|---|---|---|---|\n";
  bool all_pass = true;
  std::size_t run_index = 0;
  bool first_experiment = true;
  for (const std::string& name : selected) {
    std::string exp_json;
    std::string exp_csv = csv_header();
    bool exp_pass = true;
    std::string scenario;
    bool first_run = true;
    for (; run_index < runs.size() && runs[run_index].experiment == name;
         ++run_index) {
      const PlannedRun& run = runs[run_index];
      scenario = run.scenario;
      RunOutcome outcome;
      const auto kv = read_file(run.dir + "/run.kv");
      if (kv) outcome = parse_kv(*kv);
      if (exit_codes[run_index] != 0 && outcome.error.empty()) {
        outcome.ran = false;
        outcome.error =
            "worker exited " + std::to_string(exit_codes[run_index]);
      }
      const std::vector<CriterionResult> criteria =
          evaluate_criteria(run.spec, outcome);
      bool run_pass = outcome.ran;
      for (const CriterionResult& c : criteria) {
        run_pass = run_pass && c.pass;
      }
      exp_pass = exp_pass && run_pass;

      exp_json += first_run ? "\n" : ",\n";
      first_run = false;
      exp_json += "        {\n          \"label\": " +
                  obs::json_quote(run.spec.label);
      exp_json += ",\n          \"ok\": ";
      exp_json += outcome.ran ? "true" : "false";
      if (!outcome.error.empty()) {
        exp_json +=
            ",\n          \"error\": " + obs::json_quote(outcome.error);
      }
      exp_json += ",\n          \"metrics\": {";
      bool first = true;
      for (const auto& [key, value] : outcome.metrics) {
        exp_json += first ? "\n" : ",\n";
        exp_json += "            " + obs::json_quote(key) + ": " + value;
        first = false;
      }
      exp_json += "\n          },\n          \"criteria\": [";
      first = true;
      for (const CriterionResult& c : criteria) {
        exp_json += first ? "\n" : ",\n";
        exp_json += "            {\"check\": " + obs::json_quote(c.check) +
                    ", \"bound\": " + obs::json_quote(c.bound) +
                    ", \"value\": " + obs::json_quote(c.value) +
                    ", \"pass\": " + (c.pass ? "true" : "false");
        if (!c.note.empty()) {
          exp_json += ", \"note\": " + obs::json_quote(c.note);
        }
        exp_json += "}";
        first = false;
      }
      exp_json += "\n          ],\n          \"pass\": ";
      exp_json += run_pass ? "true" : "false";
      exp_json += "\n        }";

      const std::string row = csv_row(run, outcome, run_pass);
      exp_csv += row;
      summary_csv += row;

      const std::string* completed = outcome.metric("completed");
      const std::string* offered = outcome.metric("offered");
      const std::string* p99 = outcome.metric("p99_ms");
      summary_md += "| " + name + " | " + run.spec.label + " | " +
                    (completed ? *completed : "-") + "/" +
                    (offered ? *offered : "-") + " | " +
                    (p99 ? *p99 : "-") + " | " +
                    (run_pass ? "pass" : "**FAIL**");
      if (!run_pass) {
        for (const CriterionResult& c : criteria) {
          if (c.pass) continue;
          summary_md += " " + c.check +
                        (c.note.empty() ? "=" + c.value : " (" + c.note + ")");
        }
      }
      summary_md += " |\n";
    }
    all_pass = all_pass && exp_pass;
    summary_json += first_experiment ? "\n" : ",\n";
    first_experiment = false;
    summary_json += "    {\n      \"name\": " + obs::json_quote(name);
    summary_json +=
        ",\n      \"scenario\": " + obs::json_quote(scenario);
    summary_json += ",\n      \"runs\": [" + exp_json + "\n      ]";
    summary_json += ",\n      \"pass\": ";
    summary_json += exp_pass ? "true" : "false";
    summary_json += "\n    }";
    (void)obs::write_text_file(options.out + "/" + name + "/runs.csv",
                               exp_csv);
    std::printf("%s %s\n", exp_pass ? "PASS" : "FAIL", name.c_str());
  }
  summary_json += "\n  ],\n  \"pass\": ";
  summary_json += all_pass ? "true" : "false";
  summary_json += "\n}\n";

  const std::uint64_t print = fingerprint64(summary_json);
  summary_md += all_pass ? "\nAll experiments passed.\n"
                         : "\nSome experiments FAILED.\n";
  if (!obs::write_text_file(options.out + "/summary.json", summary_json) ||
      !obs::write_text_file(options.out + "/summary.csv", summary_csv) ||
      !obs::write_text_file(options.out + "/summary.md", summary_md)) {
    std::fprintf(stderr, "experiments: cannot write summary artifacts\n");
    return 2;
  }
  std::printf("summary_fingerprint=%016llx\n",
              static_cast<unsigned long long>(print));
  std::printf("%s\n", all_pass ? "ALL EXPERIMENTS PASSED"
                               : "EXPERIMENT FAILURES");
  return all_pass ? 0 : 1;
}
