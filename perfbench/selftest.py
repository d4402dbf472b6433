"""Tests of the benchmark itself (not of sspkit).

    python3 perfbench/selftest.py

Uses the tiny --smoke version of each workload, so the whole file runs in
seconds. It is named so that a plain `pytest` run of the
repository does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workdir(name: str) -> Path:
    path = run.ROOT / ".perfbench_runs" / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class SmokeTest(unittest.TestCase):
    def test_each_workload_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = bench("--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--smoke")
                self.assertEqual((res["correct"], res["failed"]), (True, 0))
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(set(res["metrics"]), set(run.E2E_UNITS))
                for metric in res["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_each_workload_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                res = bench("--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--smoke")
                self.assertEqual((res["correct"], res["failed"]), (True, 0))
                self.assertEqual(list(res["metrics"]), tracer.metric_names())
                self.assertEqual(res["metrics"]["parallel.workers"]["value"], 1)

    def test_without_sources_exits_nonzero(self):
        bare = workdir("bare")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "facets-dd",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class AnswerCheckTest(unittest.TestCase):
    def test_wrong_expected_answer_is_counted(self):
        wl = workloads.SMOKE["skeleton-ladder"]
        wrong = dict(workloads.SKELETONS, bell3=(5, 9, 2))  # truth is 8 edges
        with mock.patch.dict(workloads.SKELETONS, wrong):
            tally, _, _ = run.measure_e2e(
                wl, workdir("wrong"), 3, 1.0, True, time.monotonic()
            )
        failed = sorted(p.split(": ", 1)[0] for p in tally.problems)
        self.assertEqual(failed, ["diameter:bell3", "skeleton:bell3"])
        self.assertEqual(tally.failed, 2)
        self.assertLess(tally.failed, tally.attempted)

    def test_traced_and_untraced_outputs_are_identical(self):
        for name, wl in workloads.SMOKE.items():
            with self.subTest(workload=name):
                plain, _, _ = run.measure_e2e(
                    wl, workdir(name + "-plain"), 5, 1.0, True, time.monotonic()
                )
                traced, _, _ = run.measure_layers(
                    wl, workdir(name + "-traced"), 5, 1.0, True, time.monotonic()
                )
                self.assertEqual((plain.failed, traced.failed), (0, 0))
                for job, digest in plain.digests.items():
                    self.assertEqual(traced.digests[job], digest, job)


class SpeedGaugeTest(unittest.TestCase):
    def test_time_is_scaled_by_the_probes_around_it(self):
        job = workloads.Job("j", "build", [], lambda out, seen: None)
        probes = iter([1.0] * run.PROBE_REPS_MIN + [2.0] * 100)
        with mock.patch.object(run.speed, "probe", lambda: next(probes) * run.speed.REFERENCE_S):
            gauge = run.SpeedGauge()
            for seconds in (1.0, 3.0):
                gauge.timed(lambda j: run.Outcome(0, b"", seconds))(job)
        reps = run.PROBE_REPS_MIN + int(1.0 / run.PROBE_EVERY_S)
        self.assertEqual(len(gauge.log[0][2]), min(reps, run.PROBE_REPS_MAX))
        # The first job has probes of 1.0 before it and 2.0 after it; the
        # second has 2.0 on both sides.
        first, second = gauge.normalised(0)
        self.assertAlmostEqual(first, 1.0 / 1.5)
        self.assertAlmostEqual(second, 3.0 / 2.0)
        self.assertEqual(len(gauge.normalised(1)), 1)


if __name__ == "__main__":
    unittest.main()
