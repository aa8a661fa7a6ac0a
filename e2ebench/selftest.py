#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark itself.

    python3 e2ebench/selftest.py

Checks that every metric name is well formed and matches BENCHMARK.json,
that half_wall_ratio reads 1.0 on linear and 3.0 on quadratic synthetic
completion stamps (session_bench --selftest, built on demand), that
each correctness check in run.py fails when fed a forged mismatch, and
that the accounting check fails on a real replay whose closes lose or
double one outcome (session_bench --forge-outcome).
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def good_rep(seed=4, realization=0, fingerprint="00000000000000aa"):
    """A minimal process record that passes every check."""
    classes = {c: {"completed": 0, "rejected": 0} for c in run.CLASSES}
    classes["standard"] = {"completed": 8, "rejected": 2}
    submitted = {c: 0 for c in run.CLASSES}
    submitted["standard"] = 10
    ledger = {c: {"offered": submitted[c], **classes[c]} for c in run.CLASSES}
    pct = {"value": 5.0, "n": 2000, "beyond": 20}
    return {
        "seed": seed,
        "realization": realization,
        "fingerprint": fingerprint,
        "drive_ok": True,
        "drive_s": 1.0,
        "setup_s": 0.1,
        "peak_rss_mb": 10.0,
        "reference_ms": run.REFERENCE_NOMINAL_MS,
        "half_wall_ratio": 1.0,
        "accounting": {
            "submitted": 10, "returned": 10, "missing": 0, "duplicates": 0,
            "stray": 0, "submitted_by_class": submitted,
            "platform": {"offered": 10, "completed": 8, "rejected": 2,
                         "classes": ledger},
        },
        "outcomes": {
            "completed": 8, "rejected": 2, "failed": 0,
            "classes": classes, "virt_p50_ms": pct, "virt_p99_ms": pct,
            "virt_goodput_per_s": 2.0, "served_share": 0.8,
        },
        "platform": {"core.invariant.violations": 0,
                     "core.invariant.checks": 50, "faults_fired": 3},
        "traced": {"fingerprint": fingerprint},
        "twin": {"fingerprint": fingerprint, "metrics_identical": True},
    }


def good_reps():
    return [good_rep(seed=100 + r, realization=r, fingerprint=f"{r:016x}")
            for _ in range(2) for r in range(run.REALIZATIONS)]


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        unit_re = run.re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, run.NAME_RE)
                self.assertLessEqual(len(name), 64)
                self.assertRegex(unit, unit_re)

    def test_benchmark_json_matches_run_py(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to the benchmark")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


class HalfWallRatio(unittest.TestCase):
    def test_linear_and_quadratic_stamps(self):
        binary = run.build(run.build_root())
        proc = subprocess.run([str(binary), "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("half_wall_ratio reads 1.0 for linear cost",
                      proc.stdout)
        self.assertIn("half_wall_ratio reads 3.0 for quadratic cost",
                      proc.stdout)


class VirtualAggregate(unittest.TestCase):
    def test_one_bursty_realization_does_not_decide_the_tail(self):
        self.assertEqual(run.trimmed_mean([5, 1, 3, 100]), 4)
        reps = good_reps()
        for rep in reps:
            if rep["realization"] == 0:
                rep["outcomes"]["virt_p99_ms"]["value"] *= 10
        self.assertEqual(run.end_to_end(reps, [])["virt_p99_ms"],
                         run.end_to_end(good_reps(), [])["virt_p99_ms"])


class HostScaling(unittest.TestCase):
    def test_slow_host_reads_like_nominal(self):
        nominal = run.end_to_end(good_reps(), [])
        slow = copy.deepcopy(good_reps())
        for rep in slow:
            rep["drive_s"] *= 1.4 ** run.DRIVE_ELASTICITY
            rep["setup_s"] *= 1.4 ** run.SETUP_ELASTICITY
            rep["reference_ms"] *= 1.4
        scaled = run.end_to_end(slow, [])
        for name in ("sessions_per_s", "setup_s"):
            self.assertAlmostEqual(scaled[name], nominal[name])

    def test_faster_program_reads_faster(self):
        nominal = run.end_to_end(good_reps(), [])
        faster = copy.deepcopy(good_reps())
        for rep in faster:
            rep["drive_s"] /= 2
        self.assertAlmostEqual(run.end_to_end(faster, [])["sessions_per_s"],
                               2 * nominal["sessions_per_s"])


class ChecksHaveTeeth(unittest.TestCase):
    def test_good_records_pass(self):
        reps = good_reps()
        for rep in reps:
            self.assertEqual(run.check_accounting(rep), [])
        self.assertEqual(run.check_repeat(reps), [])
        self.assertEqual(run.check_twin("rpc-wire", reps), [])
        self.assertEqual(run.check_faults("fault-elastic", reps), [])
        problems = []
        self.assertIn("virt_p99_ms", run.end_to_end(reps, problems))
        self.assertEqual(problems, [])

    def test_total_accounting_mismatch(self):
        rep = good_rep()
        rep["outcomes"]["completed"] = 9
        self.assertTrue(run.check_accounting(rep))

    def test_class_accounting_mismatch(self):
        rep = good_rep()
        rep["outcomes"]["classes"]["standard"]["rejected"] = 1
        self.assertTrue(run.check_accounting(rep))

    def test_class_submitted_mismatch(self):
        rep = good_rep()
        rep["accounting"]["submitted_by_class"]["batch"] = 1
        self.assertTrue(run.check_accounting(rep))

    def test_lost_outcome(self):
        rep = good_rep()
        rep["accounting"].update(returned=9, missing=1)
        self.assertTrue(run.check_accounting(rep))

    def test_swapped_outcome(self):
        # One lost and one doubled: the counts add up, the bitmap does not.
        rep = good_rep()
        rep["accounting"].update(missing=1, duplicates=1)
        self.assertTrue(run.check_accounting(rep))

    def test_platform_ledger_mismatch(self):
        rep = good_rep()
        rep["accounting"]["platform"]["completed"] = 7
        self.assertTrue(run.check_accounting(rep))
        rep = good_rep()
        rep["accounting"]["platform"]["classes"]["standard"]["offered"] = 11
        self.assertTrue(run.check_accounting(rep))


    def test_fingerprint_does_not_repeat(self):
        reps = good_reps()
        reps[-1] = copy.deepcopy(reps[-1])
        reps[-1]["fingerprint"] = "ffffffffffffffff"
        self.assertTrue(run.check_repeat(reps))

    def test_virtual_outcomes_do_not_repeat(self):
        reps = good_reps()
        reps[-1] = copy.deepcopy(reps[-1])
        reps[-1]["outcomes"]["virt_goodput_per_s"] = 2.5
        self.assertTrue(run.check_repeat(reps))

    def test_traced_differs_from_untraced(self):
        reps = copy.deepcopy(good_reps())
        reps[0]["traced"]["fingerprint"] = "ffffffffffffffff"
        self.assertTrue(run.check_repeat(reps))

    def test_rpc_differs_from_sim_twin(self):
        reps = copy.deepcopy(good_reps())
        reps[0]["twin"]["metrics_identical"] = False
        self.assertTrue(run.check_twin("rpc-wire", reps))
        reps = copy.deepcopy(good_reps())
        reps[0]["twin"]["fingerprint"] = "ffffffffffffffff"
        self.assertTrue(run.check_twin("rpc-wire", reps))

    def test_rpc_without_twin(self):
        reps = copy.deepcopy(good_reps())
        for rep in reps:
            del rep["twin"]
        self.assertTrue(run.check_twin("rpc-wire", reps))

    def test_invariant_violation(self):
        reps = copy.deepcopy(good_reps())
        reps[0]["platform"]["core.invariant.violations"] = 1
        self.assertTrue(run.check_faults("fault-elastic", reps))

    def test_no_fault_fired(self):
        reps = copy.deepcopy(good_reps())
        reps[0]["platform"]["faults_fired"] = 0
        self.assertTrue(run.check_faults("fault-elastic", reps))

    def test_fingerprint_history(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fingerprints.json"
            reps = good_reps()
            self.assertEqual(run.check_history("w", reps, path, "b1"), [])
            forged = copy.deepcopy(reps)
            for rep in forged:
                if rep["seed"] == 100:
                    rep["fingerprint"] = "ffffffffffffffff"
            self.assertTrue(run.check_history("w", forged, path, "b1"))
            # A rebuilt binary starts a fresh history.
            self.assertEqual(run.check_history("w", forged, path, "b2"), [])

    def test_percentile_withheld(self):
        reps = copy.deepcopy(good_reps())
        reps[0]["outcomes"]["virt_p99_ms"] = {"value": 9.0, "n": 500,
                                              "beyond": 5}
        problems = []
        metrics = run.end_to_end(reps, problems)
        self.assertNotIn("virt_p99_ms", metrics)
        self.assertTrue(problems)

    def test_non_optimised_build_not_comparable(self):
        self.assertTrue(run.comparable(
            {"type": "Release", "optimized": True, "sanitized": False}))
        self.assertFalse(run.comparable(
            {"type": "Debug", "optimized": False, "sanitized": False}))
        self.assertFalse(run.comparable(
            {"type": "Release", "optimized": True, "sanitized": True}))


class ForgedOutcomesOnRealRuns(unittest.TestCase):
    """session_bench --forge-outcome drops or doubles one outcome that a
    real close returned; the accounting check must reject the run."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_root())

    def replay(self, *extra, seed=1):
        return run.run_process([str(self.binary), "--workload",
                                "fault-elastic", "--seed", str(seed), *extra])

    def test_clean_run_passes(self):
        self.assertEqual(run.check_accounting(self.replay()), [])

    def test_no_session_fails_where_default_budgets_gave_up(self):
        # At the platform's default retry budgets seed 83 rejects three
        # sessions as redispatch_exhausted; the workload's budgets must
        # recover them all.
        outcomes = self.replay(seed=83)["outcomes"]
        self.assertEqual(outcomes["failed"], 0, outcomes["failed_by_reason"])
        self.assertGreater(outcomes["recovered"], 0)

    def test_dropped_outcome_fails(self):
        problems = run.check_accounting(self.replay("--forge-outcome", "drop"))
        self.assertTrue(any("missing" in p for p in problems), problems)

    def test_duplicated_outcome_fails(self):
        problems = run.check_accounting(
            self.replay("--forge-outcome", "duplicate"))
        self.assertTrue(any("duplicates" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
