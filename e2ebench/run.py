#!/usr/bin/env python3
"""End-to-end offload-session benchmark for the Rattrap simulator.

    python3 e2ebench/run.py --workload cold-fleet --seed 1 --seconds 10 --trace 0

Builds e2ebench/session_bench from the repository's sources (CMake, into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench), then runs it
repeatedly for --seconds: each process replays the workload's seeded
session schedule once from a cold start.  --trace 0 reports the
end-to-end metrics as medians over those processes; --trace 1 runs the
traced variant and reports the per-layer metrics.  Every run checks the
program's outputs (accounting identity, fingerprint repetition, sim/rpc
twin parity, invariant oracle) and exits 1 if a check fails.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See e2ebench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cold-fleet", "warm-qos", "rpc-wire", "fault-elastic")
CLASSES = ("interactive", "standard", "batch")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
MIN_BEYOND = 10  # samples beyond a percentile before it is printed
# Seeded arrival realizations per run: process k replays realization
# k % REALIZATIONS, whose seed is derived from --seed.  Virtual-time
# metrics are trimmed means over the realizations (the lowest and the
# highest dropped), so one burst in one Poisson schedule does not decide
# a run's tail latency.
REALIZATIONS = 8
PROCESS_TIMEOUT_S = 150
# Wall-clock end-to-end metrics are reported at a nominal host speed:
# each process times a fixed compute kernel of the benchmark's own
# (session_bench reference_ms) between its setup and its drive, and a
# process whose host ran the kernel k times slower than
# REFERENCE_NOMINAL_MS has its throughput scaled up by k**DRIVE_ELASTICITY
# and its setup time down by k**SETUP_ELASTICITY before the medians are
# taken.  Both exponents were fitted on ten-run sets as the ones with the
# smallest worst-case spread (README.md).
REFERENCE_NOMINAL_MS = 140.0
DRIVE_ELASTICITY = 0.5
SETUP_ELASTICITY = 0.75

# name -> unit, in report order.
END_TO_END = {
    "sessions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "half_wall_ratio": "ratio",
    "virt_p50_ms": "ms",
    "virt_p99_ms": "ms",
    "virt_goodput_per_s": "1/s",
    "served_share": "ratio",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_session": "count",
    "sim.host_ns_per_event": "ns",
    "sim.arrivals_ms": "ms",
    "core.submit_us.p50": "us",
    "core.submit_us.p99": "us",
    "core.drain_s": "s",
    "core.summarize_ms": "ms",
    "core.envs_final": "count",
    "core.dispatch.new_env_ratio": "ratio",
    "core.dispatch.affinity_hit_ratio": "ratio",
    "core.qos.queue_wait_p99_ms.interactive": "ms",
    "core.qos.queue_wait_p99_ms.standard": "ms",
    "core.qos.queue_wait_p99_ms.batch": "ms",
    "core.qos.shed_share": "ratio",
    "core.reject_share": "ratio",
    "core.elastic.warm_hit_ratio": "ratio",
    "core.elastic.prewarmed": "count",
    "core.recovered": "count",
    "core.invariant.checks": "count",
    "core.invariant.violations": "count",
    "core.invariant_share": "ratio",
    "cac.provisioned": "count",
    "cac.provision_host_ms": "ms",
    "container.layer_digest_us": "us",
    "cac.provision_est_share": "ratio",
    "cac.provision_virt_p50_ms": "ms",
    "workloads.kernel_ms": "ms",
    "workloads.variants": "count",
    "obs.metrics_export_ms": "ms",
    "obs.trace_spans": "count",
    "obs.trace_export_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
    "rpc.submit_us.p50": "us",
    "rpc.submit_us.p99": "us",
    "rpc.close_s": "s",
    "rpc.codec_us_per_session": "us",
    "rpc.bytes_per_session": "bytes",
    "rpc.frames_per_session": "count",
    "rpc.wire_share": "ratio",
    "phase.connect_ms": "ms",
    "phase.queue_wait_ms": "ms",
    "phase.prep_ms": "ms",
    "phase.transfer_ms": "ms",
    "phase.compute_ms": "ms",
    "host.reference_ms": "ms",
    "host.sessions_per_wall_s": "1/s",
}


class BenchError(Exception):
    """A failure that prevents a result (build, process, usage)."""


# -- Build ----------------------------------------------------------------


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else Path.cwd() / base) / "e2ebench"


def build(out):
    """Configures (once) and builds session_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"rattrap sources not found at {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "session_bench",
                  "-j", jobs])
    with open(out / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                log.flush()
                tail = (out / "build.log").read_text()[-3000:]
                raise BenchError(f"build failed: {' '.join(step)}\n{tail}")
    return out / "session_bench"


# -- Running --------------------------------------------------------------


def run_process(args):
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def realization_seed(seed, realization):
    return (seed * REALIZATIONS + realization) % 2**64


def run_reps(binary, workload, seed, seconds, traced, out):
    """Runs cold-start processes, cycling through the realizations, until
    the next process would overrun `seconds`.  An untraced run covers
    every realization at least once unless that would overrun the
    process budget; a traced run (several drives per process) stops on
    time alone.

    The first untraced rpc-wire process also runs the in-process sim
    twin so its metrics can be compared byte for byte.
    """
    reps = []
    start = time.monotonic()
    while True:
        realization = len(reps) % REALIZATIONS
        args = [str(binary), "--workload", workload, "--seed",
                str(realization_seed(seed, realization))]
        if traced:
            spans = out / f"spans-{workload}-seed{seed}-{realization}.json"
            args += ["--traced", "--spans-out", str(spans)]
        elif workload == "rpc-wire" and not reps:
            args.append("--twin")
        began = time.monotonic()
        reps.append(dict(run_process(args), realization=realization))
        last = time.monotonic() - began
        elapsed = time.monotonic() - start
        covered = traced or len(reps) >= REALIZATIONS
        if (covered and elapsed + last > seconds or
                elapsed + last > PROCESS_TIMEOUT_S):
            return reps


def realizations(reps):
    """Processes grouped by realization, in realization order."""
    groups = {}
    for rep in reps:
        groups.setdefault(rep["realization"], []).append(rep)
    return [groups[r] for r in sorted(groups)]


# -- Metrics ----------------------------------------------------------------


def median(values):
    return statistics.median(values)


def trimmed_mean(values):
    """Mean without the lowest and the highest value (of three or more)."""
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return statistics.fmean(values)


def percentile_value(pct, name, problems):
    """A percentile's value, or a problem when too few samples lie beyond."""
    if pct["beyond"] < MIN_BEYOND:
        problems.append(f"{name} withheld: {pct['beyond']} samples beyond it "
                        f"(n={pct['n']}), need {MIN_BEYOND}")
        return None
    return pct["value"]


def virtual(reps, name, problems):
    """Trimmed mean over realizations of a virtual-time outcome;
    percentiles with too few samples beyond them are withheld."""
    values = []
    for group in realizations(reps):
        value = group[0]["outcomes"][name]
        if isinstance(value, dict):
            value = percentile_value(value, name, problems)
        if value is None:
            return None
        values.append(value)
    return trimmed_mean(values)


def wall_throughput(rep):
    """Terminal sessions per wall-second of one process's drive phase."""
    o = rep["outcomes"]
    return (o["completed"] + o["rejected"]) / rep["drive_s"]


def host_slowdown(rep, elasticity):
    """How much slower than nominal one process's host ran, as it moves a
    wall time with the given elasticity."""
    return (rep["reference_ms"] / REFERENCE_NOMINAL_MS) ** elasticity


def end_to_end(reps, problems):
    metrics = {
        "sessions_per_s": median([
            wall_throughput(r) * host_slowdown(r, DRIVE_ELASTICITY)
            for r in reps]),
        "setup_s": median([r["setup_s"] / host_slowdown(r, SETUP_ELASTICITY)
                           for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "half_wall_ratio": median([r["half_wall_ratio"] for r in reps]),
        "virt_p50_ms": virtual(reps, "virt_p50_ms", problems),
        "virt_p99_ms": virtual(reps, "virt_p99_ms", problems),
        "virt_goodput_per_s": virtual(reps, "virt_goodput_per_s", problems),
        "served_share": virtual(reps, "served_share", problems),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def layer_values(rep):
    """Per-layer metrics of one traced process (0 where a layer is off the
    workload's path)."""
    p, o, s, t = rep["platform"], rep["outcomes"], rep["setup"], rep["traced"]
    wire = rep.get("wire", {})
    values = {name: p[name] for name in (
        "sim.events", "sim.events_per_session", "sim.host_ns_per_event",
        "core.envs_final", "core.dispatch.new_env_ratio",
        "core.dispatch.affinity_hit_ratio", "core.elastic.warm_hit_ratio",
        "core.elastic.prewarmed", "core.invariant.checks",
        "core.invariant.violations", "cac.provisioned",
        "cac.provision_virt_p50_ms")}
    values.update({name: t.get(name, 0.0) for name in (
        "core.submit_us.p50", "core.submit_us.p99", "core.drain_s",
        "core.summarize_ms", "core.invariant_share", "cac.provision_host_ms",
        "container.layer_digest_us", "obs.trace_spans", "obs.trace_export_ms",
        "obs.trace_overhead_ratio", "rpc.submit_us.p50", "rpc.submit_us.p99",
        "rpc.close_s", "rpc.codec_us_per_session", "rpc.wire_share")})
    for klass in CLASSES:
        pct = o["queue_wait_p99_ms"][klass]
        values[f"core.qos.queue_wait_p99_ms.{klass}"] = (
            pct["value"] if pct["beyond"] >= MIN_BEYOND else 0.0)
    values.update({
        "sim.arrivals_ms": s["arrivals_ms"],
        "core.qos.shed_share": o["shed_share"],
        "core.reject_share": o["reject_share"],
        "core.recovered": o["recovered"],
        "cac.provision_est_share": (p["cac.provisioned"] *
                                    t["cac.provision_host_ms"] /
                                    (rep["drain_s"] * 1e3)),
        "workloads.kernel_ms": s["kernel_ms"] / max(1, s["variants"]),
        "workloads.variants": s["variants"],
        "obs.metrics_export_ms": rep["export_ms"],
        "rpc.bytes_per_session": wire.get("bytes_per_session", 0.0),
        "rpc.frames_per_session": wire.get("frames_per_session", 0.0),
        "host.reference_ms": rep["reference_ms"],
        "host.sessions_per_wall_s": wall_throughput(rep),
    })
    for phase in ("connect", "queue_wait", "prep", "transfer", "compute"):
        values[f"phase.{phase}_ms"] = o["phase_ms"][phase]
    return values


def per_layer(reps):
    rows = [layer_values(r) for r in reps]
    return {name: median([row[name] for row in rows]) for name in PER_LAYER}


# -- Correctness checks -------------------------------------------------
#
# Each returns a list of problems; an empty list passes.


def check_accounting(rep):
    """Every submitted session comes back from close exactly once, as
    completed or rejected, in total and per class; the platform's own
    session counters agree with the benchmark's tallies."""
    a, o = rep["accounting"], rep["outcomes"]
    platform = a["platform"]
    problems = []
    for what in ("missing", "duplicates", "stray"):
        if a[what]:
            problems.append(f"{a[what]} outcomes {what} in what close "
                            "returned")
    if a["returned"] != a["submitted"]:
        problems.append(f"close returned {a['returned']} outcomes for "
                        f"{a['submitted']} submitted")
    if a["submitted"] != o["completed"] + o["rejected"]:
        problems.append(f"submitted {a['submitted']} != completed "
                        f"{o['completed']} + rejected {o['rejected']}")
    if sum(a["submitted_by_class"].values()) != a["submitted"]:
        problems.append("per-class submitted does not sum to submitted")
    for klass, submitted in a["submitted_by_class"].items():
        c = o["classes"][klass]
        if submitted != c["completed"] + c["rejected"]:
            problems.append(f"class {klass}: submitted {submitted} != "
                            f"completed {c['completed']} + rejected "
                            f"{c['rejected']}")
        ledger = platform["classes"][klass]
        ours = {"offered": submitted, **c}
        for key, value in ours.items():
            if ledger[key] != value:
                problems.append(f"class {klass}: platform qos.{key} "
                                f"{ledger[key]} != {value} counted here")
    ours = {"offered": a["submitted"], "completed": o["completed"],
            "rejected": o["rejected"]}
    for key, value in ours.items():
        if platform[key] != value:
            problems.append(f"platform sessions.{key} {platform[key]} != "
                            f"{value} counted here")
    if not rep["drive_ok"]:
        problems.append("drive failed (open_session rejected or no metrics)")
    return problems


def check_repeat(reps):
    """Same seed, same code: every process of a realization yields the
    same fingerprint and the same virtual-time results, traced or not."""
    problems = []
    for group in realizations(reps):
        first = group[0]
        for rep in group:
            where = f"seed {rep['seed']}"
            if rep["fingerprint"] != first["fingerprint"]:
                problems.append(f"{where}: fingerprint {rep['fingerprint']} "
                                f"!= {first['fingerprint']}")
            if rep["outcomes"] != first["outcomes"]:
                problems.append(f"{where}: virtual-time outcomes differ")
            traced = rep.get("traced")
            if traced and traced["fingerprint"] != rep["fingerprint"]:
                problems.append(f"{where}: traced fingerprint "
                                f"{traced['fingerprint']} != untraced "
                                f"{rep['fingerprint']}")
    return problems


def check_twin(workload, reps):
    """rpc-wire: the server platform's metrics JSON equals its sim twin's."""
    if workload != "rpc-wire":
        return []
    twinned = [r for r in reps if "twin" in r]
    if not twinned:
        return ["rpc-wire ran without its sim twin"]
    return [f"seed {r['seed']}: rpc metrics differ from the sim twin "
            f"({r['twin']['fingerprint']} vs {r['fingerprint']})"
            for r in twinned
            if not r["twin"]["metrics_identical"] or
            r["twin"]["fingerprint"] != r["fingerprint"]]


def check_faults(workload, reps):
    """fault-elastic: the oracle ran, saw no violation, and faults fired."""
    if workload != "fault-elastic":
        return []
    problems = []
    for rep in reps:
        p = rep["platform"]
        where = f"seed {rep['seed']}"
        if p["core.invariant.violations"] != 0:
            problems.append(f"{where}: {p['core.invariant.violations']} "
                            "invariant violations")
        if p["core.invariant.checks"] == 0:
            problems.append(f"{where}: the invariant oracle never ran")
        if p["faults_fired"] < 1:
            problems.append(f"{where}: no fault fired")
    return problems


def check_history(workload, reps, path, binary_id):
    """The fingerprint of (workload, seed) repeats across invocations of
    one build, traced and untraced alike."""
    history = {}
    if path.is_file():
        history = json.loads(path.read_text())
    if history.get("binary") != binary_id:
        history = {"binary": binary_id, "seen": {}}
    problems = []
    for rep in reps:
        key = f"{workload}:{rep['seed']}"
        seen = history["seen"].setdefault(key, rep["fingerprint"])
        if seen != rep["fingerprint"]:
            problems.append(f"fingerprint {rep['fingerprint']} != {seen} "
                            f"from an earlier run of {key}")
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return problems


def comparable(build_info):
    """Numbers from a non-optimised or sanitizer build are not comparable."""
    return build_info["optimized"] and not build_info["sanitized"]


# -- Environment --------------------------------------------------------


def environment(build_info):
    sha = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "host": platform.node(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "build_type": build_info["type"],
        "optimized": build_info["optimized"],
        "sanitized": build_info["sanitized"],
        "comparable": comparable(build_info),
        "git_sha": sha,
    }


# -- Main -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def report(args, env, reps, metrics, units, problems):
    print(f"e2ebench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} processes={len(reps)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        print(f"host reference_ms={median([r['reference_ms'] for r in reps]):.3f}"
              f" (nominal {REFERENCE_NOMINAL_MS}) wall sessions_per_s="
              f"{median([wall_throughput(r) for r in reps]):.6g} wall setup_s="
              f"{median([r['setup_s'] for r in reps]):.6g}")
    if not env["comparable"]:
        print("WARNING: non-optimised or sanitizer build; numbers are not "
              "comparable")
    failed = {}
    for rep in reps:
        for reason, count in rep["outcomes"].get("failed_by_reason",
                                                 {}).items():
            failed[reason] = failed.get(reason, 0) + count
    if failed:
        print("failed sessions by reject reason: " +
              json.dumps(failed, sort_keys=True))
    for name, value in metrics.items():
        extra = ""
        if name in ("virt_p50_ms", "virt_p99_ms"):
            samples = [g[0]["outcomes"][name] for g in realizations(reps)]
            extra = "  (trimmed mean of realizations; n/beyond " + ", ".join(
                f"{s['n']}/{s['beyond']}" for s in samples) + ")"
        print(f"  {name:40s} {value:16.6g} {units[name]}{extra}")
    if args.trace:
        print("  span self time (ms, last process): " + json.dumps(
            reps[-1]["span_self_ms"], sort_keys=True))
        print("  virtual trace phase ms/session: " + json.dumps(
            reps[-1]["traced"]["trace_phase_ms"], sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'ok' if not problems else 'FAILED'}")


def main(argv):
    args = parse_args(argv)
    out = build_root()
    try:
        binary = build(out)
        results = out / "results"
        results.mkdir(exist_ok=True)
        reps = run_reps(binary, args.workload, args.seed, args.seconds,
                        bool(args.trace), results)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"e2ebench: {err}", file=sys.stderr)
        return 1

    problems = []
    for rep in reps:
        problems += check_accounting(rep)
    problems += check_repeat(reps)
    problems += check_twin(args.workload, reps)
    problems += check_faults(args.workload, reps)
    stat = binary.stat()
    problems += check_history(args.workload, reps,
                              results / "fingerprints.json",
                              f"{stat.st_size}-{stat.st_mtime_ns}")
    if args.trace:
        metrics, units = per_layer(reps), PER_LAYER
    else:
        metrics, units = end_to_end(reps, problems), END_TO_END

    env = environment(reps[0]["build"])
    report(args, env, reps, metrics, units, problems)
    result = {
        "correct": not problems,
        "attempted": sum(r["accounting"]["submitted"] for r in reps),
        "failed": sum(r["outcomes"]["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, environment=env, workload=args.workload,
                  seed=args.seed, trace=args.trace, problems=problems,
                  processes=reps)
    (results / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
               ".json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
