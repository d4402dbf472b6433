"""In-process span tracer for the sspkit benchmark.

The tracer wraps public sspkit functions at every place a caller looks them
up (module globals, the FAMILY_BUILDERS and SUITES tables, and
ZeroOnePolytope.__init__ on the class), records one span per call and a few
counters derived from arguments and results, and puts everything back on
exit. Nothing under src/ is edited. A target that does not exist in the
program being measured is skipped, so the tracer keeps working after a
refactor removes or renames a function; its metrics then read zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# (module, attribute, span name). Span names are "<layer>.<function>".
TARGETS = [
    ("sspkit.cli", "_read_json", "cli.read_json"),
    ("sspkit.serialize", "polytope_from_json", "serialize.polytope_from_json"),
    ("sspkit.serialize", "dumps", "serialize.dumps"),
    ("sspkit.graphs", "enumerate_stable_sets", "graphs.enumerate_stable_sets"),
    ("sspkit.graphs", "enumerate_max_cliques", "graphs.enumerate_max_cliques"),
    ("sspkit.skeleton", "build_skeleton_E", "skeleton.build_skeleton_E"),
    ("sspkit.skeleton", "diameter", "skeleton.diameter"),
    ("sspkit.skeleton", "ssp_path", "skeleton.path"),
    ("sspkit.skeleton", "bp_path", "skeleton.path"),
    ("sspkit.skeleton", "is_edge_E", "skeleton.is_edge_E"),
    ("sspkit.geometry", "build_skeleton_oracle", "geometry.build_skeleton_oracle"),
    ("sspkit.geometry", "enumerate_facets", "geometry.enumerate_facets"),
    ("sspkit.geometry", "classify_inequality", "geometry.classify_inequality"),
    ("sspkit.geometry", "is_facet", "geometry.is_facet"),
    ("sspkit.linalg", "lp_feasible", "linalg.lp_feasible"),
    ("sspkit.linalg", "rank", "linalg.rank"),
    ("sspkit.matroids", "independence_polytope", "matroids.polytope"),
    ("sspkit.matroids", "basis_polytope", "matroids.polytope"),
    ("sspkit.matroids", "strong_exchange", "matroids.exchange"),
    ("sspkit.matroids", "basis_exchange_adjacent", "matroids.exchange"),
    ("sspkit.counterexample", "verify_remark", "counterexample.verify_remark"),
    ("sspkit.parallel", "worker_count", "parallel.worker_count"),
]

# Suites the workloads run; each gets a verify.suite_s.<name> metric.
SUITE_NAMES = ("oracle-vs-E", "matroid-E", "remark43", "facets-always")

# Job kinds; each gets a cli.main_s.<kind> metric.
JOB_KINDS = ("build", "skeleton", "oracle", "diameter", "path", "facets", "verify")

# Span name -> metric name of its summed self time.
SELF_TIME_METRICS = {
    "cli.read_json": "cli.read_json_s",
    "serialize.polytope_from_json": "serialize.polytope_from_json_s",
    "serialize.dumps": "serialize.dumps_s",
    "families.build": "families.build_s",
    "graphs.enumerate_stable_sets": "graphs.enumerate_stable_sets_s",
    "graphs.enumerate_max_cliques": "graphs.enumerate_max_cliques_s",
    "skeleton.polytope": "skeleton.polytope_s",
    "skeleton.build_skeleton_E": "skeleton.build_skeleton_E_s",
    "skeleton.diameter": "skeleton.diameter_s",
    "skeleton.path": "skeleton.path_s",
    "skeleton.is_edge_E": "skeleton.is_edge_E_s",
    "geometry.build_skeleton_oracle": "geometry.build_skeleton_oracle_s",
    "geometry.enumerate_facets": "geometry.enumerate_facets_s",
    "geometry.classify_inequality": "geometry.classify_inequality_s",
    "geometry.is_facet": "geometry.is_facet_s",
    "linalg.lp_feasible": "linalg.lp_feasible_s",
    "linalg.rank": "linalg.rank_s",
    "matroids.polytope": "matroids.polytope_s",
    "matroids.exchange": "matroids.exchange_s",
    "counterexample.verify_remark": "counterexample.verify_remark_s",
}

# Span name -> metric name of its call count.
CALL_METRICS = {
    "serialize.polytope_from_json": "serialize.polytope_from_json.calls",
    "graphs.enumerate_stable_sets": "graphs.enumerate_stable_sets.calls",
    "skeleton.is_edge_E": "skeleton.is_edge_E.calls",
    "geometry.is_facet": "geometry.is_facet.calls",
    "linalg.lp_feasible": "linalg.lp_feasible.calls",
    "linalg.rank": "linalg.rank.calls",
}

COUNTERS = (
    "serialize.bytes_out",
    "graphs.stable_sets",
    "skeleton.pairs",
    "skeleton.edges",
    "skeleton.bfs_sources",
    "skeleton.path_hops",
    "geometry.oracle_pairs",
    "geometry.facets",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = ["cli.startup_s"]
    names += [f"cli.main_s.{k}" for k in JOB_KINDS] + ["cli.self_s"]
    names += list(SELF_TIME_METRICS.values()) + list(CALL_METRICS.values())
    names += list(COUNTERS)
    names += ["skeleton.edge_ratio", "linalg.lp_infeasible_ratio"]
    names += [f"verify.suite_s.{s}" for s in SUITE_NAMES]
    names += ["parallel.workers", "trace.overhead_ratio", "trace.spans"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith(("cli.main_s.", "verify.suite_s.")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "serialize.bytes_out":
        return "bytes"
    return "count"


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count(tr: "Tracer", name: str, args: tuple, result: Any) -> None:
    """Counters measured at the boundary of the call that did the work."""
    c = tr.counters
    if name == "serialize.dumps":
        c["serialize.bytes_out"] += len(result.encode("utf-8"))
    elif name == "graphs.enumerate_stable_sets":
        c["graphs.stable_sets"] += len(result)
    elif name == "skeleton.build_skeleton_E":
        c["skeleton.pairs"] += _pairs(result.vertex_count)
        c["skeleton.edges"] += len(result.edges)
    elif name == "skeleton.diameter":
        # diameter() runs one BFS per vertex, and stops after the first
        # when the graph is disconnected.
        c["skeleton.bfs_sources"] += args[0].vertex_count if result is not None else 1
    elif name == "skeleton.path":
        c["skeleton.path_hops"] += len(result) - 1
    elif name == "geometry.build_skeleton_oracle":
        c["geometry.oracle_pairs"] += _pairs(result.vertex_count)
    elif name == "geometry.enumerate_facets":
        c["geometry.facets"] += len(result)
    elif name == "linalg.lp_feasible":
        # An infeasible LP is the oracle's proof that a pair is an edge.
        c["linalg.lp_infeasible"] += not result
    elif name == "parallel.worker_count":
        c["parallel.workers"] = max(c["parallel.workers"], result)


class Tracer:
    """Spans as [name, parent, start, end] lists plus named counters.

    Spans stay in memory; write_spans() saves them when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[Callable[[], None]] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        sid = len(self.spans)
        span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(sid)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
        _count(self, name, args, result)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers ----------------------------

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._restore.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key]
            setattr(owner, key, value)
            self._restore.append(lambda: setattr(owner, key, old))

    def install(self) -> None:
        mods = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sspkit" or n.startswith("sspkit."))
        ]
        for modname, attr, name in TARGETS:
            try:
                fn = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                continue
            traced = self.wrap(name, fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, key, traced)

        families = sys.modules.get("sspkit.families")
        for fam, fn in list(getattr(families, "FAMILY_BUILDERS", {}).items()):
            self._patch(families.FAMILY_BUILDERS, fam, self.wrap("families.build", fn))

        verify = sys.modules.get("sspkit.verify")
        for suite, fn in list(getattr(verify, "SUITES", {}).items()):
            self._patch(verify.SUITES, suite, self.wrap(f"verify.suite.{suite}", fn))

        skeleton = sys.modules.get("sspkit.skeleton")
        cls = getattr(skeleton, "ZeroOnePolytope", None)
        if cls is not None:
            init = cls.__init__

            def traced_init(obj, *args, **kwargs):
                return self.call("skeleton.polytope", init, (obj,) + args, kwargs)

            self._patch(cls, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading the trace -----------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (summed self time, call count).

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for k, (name, _parent, t0, t1) in enumerate(self.spans):
            agg = out[name]
            agg[0] += t1 - t0 - child[k]
            agg[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (see metric_names)."""
        st = self.self_times()
        c = self.counters
        m: dict[str, float] = {}
        for kind in JOB_KINDS:
            m[f"cli.main_s.{kind}"] = sum(
                t1 - t0 for name, parent, t0, t1 in self.spans
                if parent < 0 and name == f"job.{kind}"
            )
        # A job's own span is the CLI layer: argument parsing and glue.
        m["cli.self_s"] = sum(st.get(f"job.{k}", (0.0, 0))[0] for k in JOB_KINDS)
        for span, metric in SELF_TIME_METRICS.items():
            m[metric] = st.get(span, (0.0, 0))[0]
        for span, metric in CALL_METRICS.items():
            m[metric] = st.get(span, (0.0, 0))[1]
        for name in COUNTERS:
            m[name] = c[name]
        m["skeleton.edge_ratio"] = c["skeleton.edges"] / c["skeleton.pairs"] if c["skeleton.pairs"] else 0.0
        lps = st.get("linalg.lp_feasible", (0.0, 0))[1]
        m["linalg.lp_infeasible_ratio"] = c["linalg.lp_infeasible"] / lps if lps else 0.0
        for suite in SUITE_NAMES:
            m[f"verify.suite_s.{suite}"] = sum(
                t1 - t0 for name, _p, t0, t1 in self.spans
                if name == f"verify.suite.{suite}"
            )
        # No call to worker_count means no fan-out: one worker.
        m["parallel.workers"] = c["parallel.workers"] or 1
        m["trace.spans"] = len(self.spans)
        return m

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [id, name, parent id, start s, end s]."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([k, name, parent, t0 - base, t1 - base]) + "\n")


def run_traced(tracer: Optional[Tracer], kind: str, main: Callable[[], int]) -> int:
    """Run one job as a root span named job.<kind>, or untraced."""
    if tracer is None:
        return main()
    return tracer.call(f"job.{kind}", main, (), {})
