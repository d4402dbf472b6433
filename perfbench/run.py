"""sspkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload skeleton-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/sspkit).
With --trace 0 each job is a fresh `python -m sspkit.cli` child, one at a
time (a closed loop with one client), timed with perf_counter; the
end-to-end metrics come from these runs. With --trace 1 the same jobs run
in this process through sspkit.cli.main(argv) with the tracer installed,
and the per-layer metrics come from that run. Either way every job's
answer is checked. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else (inputs,
job outputs, spans, a full result record) goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import speed
import tracer as tracing
from workloads import SMOKE, WORKLOADS, Job, Plan, Workload, build_job

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
# Probes after a job: PROBE_REPS_MIN, plus one per PROBE_EVERY_S of the
# job's time, at most PROBE_REPS_MAX.
PROBE_EVERY_S = 0.5
PROBE_REPS_MIN = 3
PROBE_REPS_MAX = 9
# Hard stop for children, so a hung job still lets the run end in time.
DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    rc: int
    out: bytes
    seconds: float
    rss_mb: float = 0.0


@dataclass
class Tally:
    """Answer checks across the run, plus the digest of every job's output."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def record(self, job: Job, res: Outcome, seen: dict) -> None:
        self.attempted += 1
        digest = hashlib.sha256(res.out).hexdigest()
        if res.rc != 0:
            problem = f"exit code {res.rc}"
        else:
            try:
                problem = job.check(res.out, seen)
            except Exception as exc:  # a malformed answer is a wrong answer
                problem = f"unreadable output: {exc!r}"
            if problem is None and self.digests.setdefault(job.name, digest) != digest:
                problem = "output bytes differ from an earlier run of this job"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{job.name}: {problem}")


class Runner:
    """Runs jobs as children (trace off) or in this process (trace on)."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("SSPKIT_THREADS", None)

    def child(self, cmd: list[str]) -> Outcome:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *cmd], stdout=out, stderr=err,
                cwd=self.workdir, env=self.env,
            )
            left = DEADLINE_S - (time.monotonic() - self.started)
            timer = threading.Timer(max(left, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out_path.read_bytes(), seconds,
                       usage.ru_maxrss / 1024.0)

    def cli_child(self, job: Job) -> Outcome:
        res = self.child(["-m", "sspkit.cli", *job.argv])
        if job.output_file and res.rc == 0:
            res.out = Path(job.output_file).read_bytes()
        return res

    def in_process(self, job: Job, tracer: Optional[tracing.Tracer]) -> Outcome:
        from sspkit import cli

        def main() -> int:
            try:
                return cli.main(job.argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2

        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = tracing.run_traced(tracer, job.kind, main)
            except Exception as exc:  # keep going; the job counts as failed
                print(f"{job.name}: {exc!r}", file=sys.__stderr__)
                rc = 99
            seconds = time.perf_counter() - t0
        out = buf.getvalue().encode("utf-8")
        if job.output_file and rc == 0:
            out = Path(job.output_file).read_bytes()
        return Outcome(rc, out, seconds)


class SpeedGauge:
    """Times the host-speed probe around each timed job (see speed.py). A
    job's "after" probes are the next job's "before" probes, and longer
    jobs get more probes after them. Jobs that are not timed (references,
    warm-up) are not probed."""

    def __init__(self):
        self.last = self.sample(PROBE_REPS_MIN)
        # (probes before, raw seconds, probes after), one per timed job
        self.log: list[tuple[list[float], float, list[float]]] = []

    @staticmethod
    def sample(reps: int) -> list[float]:
        return [speed.probe() for _ in range(reps)]

    def timed(self, run):
        def wrapped(job: Job) -> Outcome:
            before = self.last
            res = run(job)
            reps = PROBE_REPS_MIN + int(res.seconds / PROBE_EVERY_S)
            self.last = self.sample(min(PROBE_REPS_MAX, reps))
            self.log.append((before, res.seconds, self.last))
            return res

        return wrapped

    def normalised(self, first: int) -> list[float]:
        """Normalised times of the jobs timed since log entry `first`: each
        scaled by the mean of the median probe before it and the median
        probe after it."""
        return [
            seconds * speed.REFERENCE_S / ((median(before) + median(after)) / 2)
            for before, seconds, after in self.log[first:]
        ]


def make_plan(wl: Workload, workdir: Path, seed: int) -> Plan:
    plan = Plan(str(workdir), seed)
    for inp in wl.inputs:
        try:
            obj = json.loads(Path(plan.path(inp)).read_text(encoding="utf-8"))
            plan.vertices[inp], plan.ground[inp] = obj["vertices"], obj["ground"]
        except (OSError, ValueError, KeyError):
            plan.vertices[inp], plan.ground[inp] = [], []
    return plan


def run_pass(jobs: list[Job], run, tally: Tally, refs: dict) -> list[Outcome]:
    seen = dict(refs)
    results = []
    for job in jobs:
        res = run(job)
        seen[job.name] = res.out
        tally.record(job, res, seen)
        results.append(res)
    return results


def references(wl: Workload, plan: Plan, run, tally: Tally) -> dict[str, bytes]:
    """Run the workload's untimed reference jobs; their outputs by name."""
    jobs = wl.references(plan)
    return {j.name: r.out for j, r in zip(jobs, run_pass(jobs, run, tally, {}))}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_e2e(wl: Workload, workdir: Path, seed: int, seconds: float,
                smoke: bool, started: float) -> tuple[Tally, dict, dict]:
    runner = Runner(workdir, started)
    gauge = SpeedGauge()
    timed = gauge.timed(runner.cli_child)
    tally = Tally()
    plan = Plan(str(workdir), seed)
    builds = [build_job(plan, inp) for inp in wl.inputs]

    setups, setups_raw = [], []
    for _ in range(1 if smoke else SETUP_REPEATS):
        first = len(gauge.log)
        done = run_pass(builds, timed, tally, {})
        setups.append(sum(gauge.normalised(first)))
        setups_raw.append(sum(r.seconds for r in done))

    plan = make_plan(wl, workdir, seed)
    refs = references(wl, plan, runner.cli_child, tally)
    jobs = wl.jobs(plan)
    if not smoke:
        run_pass(jobs, runner.cli_child, tally, refs)  # warm-up, not timed

    raw: dict[str, list[float]] = {j.name: [] for j in jobs}
    rss = []
    gauge.last = gauge.sample(PROBE_REPS_MAX)  # the warm-up was not probed
    first = len(gauge.log)
    t_start = time.perf_counter()
    passes = 0
    while passes == 0 or (not smoke and time.perf_counter() - t_start < seconds):
        for job, res in zip(jobs, run_pass(jobs, timed, tally, refs)):
            raw[job.name].append(res.seconds)
            rss.append(res.rss_mb)
        passes += 1

    times: dict[str, list[float]] = {j.name: [] for j in jobs}
    for k, norm_s in enumerate(gauge.normalised(first)):
        times[jobs[k % len(jobs)].name].append(norm_s)

    per_job = {name: median(ts) for name, ts in times.items()}
    metrics = {
        "wall_s": sum(per_job.values()),
        "setup_s": median(setups),
        "peak_rss_mb": max(rss),
    }
    # Per-subcommand sums, for the kinds this workload runs.
    extra = {
        f"{kind}_s": sum(per_job[j.name] for j in jobs if j.kind == kind)
        for kind in tracing.JOB_KINDS if any(j.kind == kind for j in jobs)
    }
    extra["raw_wall_s"] = sum(median(ts) for ts in raw.values())
    extra["raw_setup_s"] = median(setups_raw)
    extra["probe_median_s"] = median([p for b, _, a in gauge.log[first:] for p in a])
    extra["passes"] = passes
    extra["setup_runs_s"] = setups
    extra["job_median_s"] = per_job
    extra["job_runs_s"] = times
    extra["job_raw_runs_s"] = raw
    extra["probe_log"] = gauge.log
    return tally, metrics, extra


def measure_layers(wl: Workload, workdir: Path, seed: int, seconds: float,
                   smoke: bool, started: float) -> tuple[Tally, dict, dict]:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import sspkit.cli

    if not sspkit.cli.__file__.startswith(src):
        raise RuntimeError(f"imported sspkit from {sspkit.cli.__file__}, not {src}")

    os.environ.pop("SSPKIT_THREADS", None)  # children drop it too
    runner = Runner(workdir, started)
    startups = [
        runner.child(["-c", "import sspkit.cli"]).seconds
        for _ in range(1 if smoke else STARTUP_REPEATS)
    ]

    tally = Tally()
    plan = Plan(str(workdir), seed)
    builds = [build_job(plan, inp) for inp in wl.inputs]
    run_pass(builds, lambda j: runner.in_process(j, None), tally, {})
    plan = make_plan(wl, workdir, seed)
    refs = references(wl, plan, lambda j: runner.in_process(j, None), tally)
    jobs = builds + wl.jobs(plan)
    if not smoke:
        run_pass(jobs, lambda j: runner.in_process(j, None), tally, refs)  # warm-up

    untraced, traced, layers = [], [], []
    t_start = time.perf_counter()
    while not traced or (not smoke and time.perf_counter() - t_start < seconds):
        plain = run_pass(jobs, lambda j: runner.in_process(j, None), tally, refs)
        untraced.append(sum(r.seconds for r in plain))
        tracer = tracing.Tracer()
        with tracer:
            spanned = run_pass(jobs, lambda j: runner.in_process(j, tracer), tally, refs)
        traced.append(sum(r.seconds for r in spanned))
        layers.append(tracer.layer_metrics())
        if len(traced) == 1:
            tracer.write_spans(str(workdir / "spans.jsonl"))

    found = {name: median([m[name] for m in layers]) for name in layers[0]}
    found["cli.startup_s"] = median(startups)
    found["trace.overhead_ratio"] = median(traced) / median(untraced)
    metrics = {name: found[name] for name in tracing.metric_names()}
    extra = {"passes": len(traced), "traced_pass_s": traced, "untraced_pass_s": untraced}
    return tally, metrics, extra


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def unit_of(name: str) -> str:
    return E2E_UNITS.get(name) or tracing.unit_of(name)


def main(argv: Optional[list[str]] = None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one pass, no warm-up (for self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sspkit" / "cli.py").is_file():
        print(f"error: no sspkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    workdir = ROOT / ".perfbench_runs" / (wl.name + ("-smoke" if args.smoke else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    measure = measure_layers if args.trace else measure_e2e
    tally, metrics, extra = measure(wl, workdir, args.seed, args.seconds,
                                    args.smoke, started)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine(),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else 1.0,
        "problems": tally.problems, "metrics": metrics, "stdout_sha256": tally.digests,
        **extra,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, val in record["machine"].items():
        print(f"machine {key}: {val}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, digest in tally.digests.items():
        print(f"sha256 {name} {digest}")
    for kind in tracing.JOB_KINDS:
        if f"{kind}_s" in extra:
            print(f"{kind}_s {extra[kind + '_s']} s")
    for name in ("raw_wall_s", "raw_setup_s", "probe_median_s"):
        if name in extra:
            print(f"{name} {extra[name]} s")
    print(f"failed_ratio {record['failed_ratio']:.4f} ratio "
          f"({tally.failed} of {tally.attempted} jobs)")
    for name, val in metrics.items():
        print(f"{name} {val} {unit_of(name)}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
