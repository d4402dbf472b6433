"""Workload definitions for the sspkit benchmark: inputs, jobs, and the
pinned answer each job must produce.

Every job is one `sspkit` CLI invocation. Inputs are polytope files written
by `sspkit build` during set-up. The workload seed picks the `verify`
corpus seed and the `path` endpoints; everything else is fixed.

Pinned answers and where they come from:
  - vertex counts are Catalan numbers (nc, nn), Bell numbers (bell) and
    factorials (the Birkhoff polytopes B_n, kind `rook --birkhoff`);
  - B_n edge counts follow from adjacency of permutation matrices
    (sigma, tau adjacent iff sigma^-1 tau is one cycle): B3 15, B4 240,
    B5 5040; B_n diameters are 2 for n >= 4;
  - E-skeleton edge counts nc5 313, nc6 1980, nc7 13366, nn7 13440,
    bell6 3413 and the facet classification nc6 32 = 15/16/1 were recorded for the project before this
    benchmark existed (the README and roadmap quote several of them);
  - the remaining counts (nc4, bell3, bell5, nn6, the diameters of the
    graph families, the facet counts of nc4, nc5, nn6, bell3, bell5, and
    the vertex and facet counts of the two nc7 subgraphs) were recorded
    from the toolkit's output when the benchmark was written; nn6 and
    bell5 agree with "nonnegativity plus maximal clique inequalities" for
    those perfect graphs.
Facet lists are also checked here, without the toolkit: every listed
inequality must hold on every built vertex and be tight on at least
dim-many of them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

# input name -> (family, n, birkhoff)
INPUTS = {
    "nc4": ("nc", 4, False),
    "nc5": ("nc", 5, False),
    "nc6": ("nc", 6, False),
    "nc7": ("nc", 7, False),
    "nn6": ("nn", 6, False),
    "nn7": ("nn", 7, False),
    "bell3": ("bell", 3, False),
    "bell5": ("bell", 5, False),
    "bell6": ("bell", 6, False),
    "B3": ("rook", 3, True),
    "B4": ("rook", 4, True),
    "B5": ("rook", 5, True),
}

# input name -> (n, arcs left out): the noncrossing graph on the arcs
# (i, j), 1 <= i < j <= n, without the listed arcs; two arcs clash iff
# they have the same left end, the same right end, or interleave
# strictly. The benchmark writes it as a relation file and builds it with
# `sspkit build --family relation`. Both are induced subgraphs of the nc7
# graph on 19 of its 21 arcs and keep non-clique facets, so double
# description works hard on them, for about a second each: long enough
# to dominate the job, short enough that a run sees several passes.
NC_SUBGRAPHS = {
    "nc7-a12-a67": (7, [(1, 2), (6, 7)]),
    "nc7-a17-a26": (7, [(1, 7), (2, 6)]),
}

# input name -> (vertices, E-skeleton edges, diameter)
SKELETONS = {
    "nc4": (14, 51, 3),
    "nc5": (42, 313, 3),
    "nc6": (132, 1980, 4),
    "nc7": (429, 13366, 4),
    "nn6": (132, 1982, 2),
    "nn7": (429, 13440, 2),
    "bell3": (5, 8, 2),
    "bell5": (52, 422, 4),
    "bell6": (203, 3413, 5),
    "B3": (6, 15, 1),
    "B4": (24, 240, 2),
    "B5": (120, 5040, 2),
}

VERTICES = {
    **{name: v for name, (v, _, _) in SKELETONS.items()},
    "nc7-a12-a67": 207,
    "nc7-a17-a26": 367,
}

# input name -> (facets, nonnegativity, clique, other)
FACETS = {
    "nc4": (10, 6, 4, 0),
    "nc5": (18, 10, 8, 0),
    "nc6": (32, 15, 16, 1),
    "nn6": (31, 15, 16, 0),
    "bell3": (5, 3, 2, 0),
    "bell5": (16, 10, 6, 0),
    "nc7-a12-a67": (61, 19, 30, 12),
    "nc7-a17-a26": (48, 19, 24, 5),
}


@dataclass
class Job:
    """One CLI call. check(stdout, seen) returns None or what was wrong;
    seen maps job names to the stdout of reference jobs and of the jobs
    that ran before this one in the same pass."""

    name: str
    kind: str
    argv: list[str]
    check: Callable[[bytes, dict], Optional[str]]
    output_file: Optional[str] = None  # read this instead of stdout


@dataclass
class Plan:
    """What job construction needs: where inputs live, their built vertex
    lists (label lists, as in the JSON), and the seed."""

    workdir: str
    seed: int
    vertices: dict[str, list] = field(default_factory=dict)
    ground: dict[str, list] = field(default_factory=dict)

    def path(self, inp: str) -> str:
        return f"{self.workdir}/{inp}.json"


@dataclass
class Workload:
    name: str
    why: str
    inputs: list[str]
    jobs: Callable[[Plan], list[Job]]
    references: Callable[[Plan], list[Job]] = lambda plan: []  # run once, untimed


def noncrossing_relation(n: int, left_out: list[tuple[int, int]]) -> dict:
    """The relation file of an NC_SUBGRAPHS input."""
    arcs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (i, j) not in left_out]

    def clash(a: tuple[int, int], b: tuple[int, int]) -> bool:
        (i, j), (k, l) = a, b
        return i == k or j == l or i < k < j < l or k < i < l < j

    pairs = [[list(a), list(b)] for x, a in enumerate(arcs)
             for b in arcs[x + 1:] if clash(a, b)]
    return {"labels": [list(a) for a in arcs], "pairs": pairs}


def build_job(plan: Plan, inp: str) -> Job:
    if inp in NC_SUBGRAPHS:
        relation = f"{plan.workdir}/{inp}.relation.json"
        with open(relation, "w", encoding="utf-8") as fh:
            json.dump(noncrossing_relation(*NC_SUBGRAPHS[inp]), fh)
        argv = ["build", "--family", "relation", "--input", relation]
    else:
        family, n, birkhoff = INPUTS[inp]
        argv = ["build", "--family", family, "--n", str(n)]
        if birkhoff:
            argv.append("--birkhoff")
    argv += ["--output", plan.path(inp)]

    def check(out: bytes, seen: dict) -> Optional[str]:
        obj = json.loads(out)
        want = VERTICES[inp]
        if len(obj["vertices"]) != want:
            return f"{len(obj['vertices'])} vertices, expected {want}"
        return None

    return Job(f"build:{inp}", "build", argv, check, output_file=plan.path(inp))


# -- checks ---------------------------------------------------------------


def _skeleton_check(plan: Plan, inp: str, provenance: str, ref: Optional[str] = None):
    nv, ne, _ = SKELETONS[inp]

    def check(out: bytes, seen: dict) -> Optional[str]:
        obj = json.loads(out)
        if obj["provenance"] != provenance:
            return f"provenance {obj['provenance']!r}"
        if obj["vertices"] != plan.vertices[inp]:
            return "vertex list differs from the built input"
        edges = [tuple(e) for e in obj["edges"]]
        if len(edges) != ne:
            return f"{len(edges)} edges, expected {ne}"
        if edges != sorted(set(edges)) or any(
            not 0 <= i < j < nv for i, j in edges
        ):
            return "edge list not sorted, unique and in range"
        if ref is not None and obj["edges"] != json.loads(seen[ref])["edges"]:
            return f"edge list differs from {ref}"
        return None

    return check


def _diameter_check(inp: str):
    nv, ne, diam = SKELETONS[inp]

    def check(out: bytes, seen: dict) -> Optional[str]:
        obj = json.loads(out)
        got = (obj["vertices"], obj["edges"], obj["diameter"], obj["bound_holds"])
        if got != (nv, ne, diam, True):
            return f"(vertices, edges, diameter, bound_holds) = {got}"
        if obj["diameter"] > obj["rank"]:
            return "diameter exceeds rank"
        return None

    return check


def _path_check(plan: Plan, inp: str, a: list, b: list, skeleton_job: str):
    index = {json.dumps(v): k for k, v in enumerate(plan.vertices[inp])}

    def check(out: bytes, seen: dict) -> Optional[str]:
        obj = json.loads(out)
        walk = obj["path"]
        if not walk or walk[0] != a or walk[-1] != b:
            return "walk does not join the requested endpoints"
        if obj["hops"] != len(walk) - 1:
            return "hops does not match the walk"
        if not (obj["edges_valid"] and obj["within_bound"]):
            return "edges_valid or within_bound is false"
        if obj["hops"] > obj["rank"]:
            return "walk longer than the rank"
        edges = {tuple(e) for e in json.loads(seen[skeleton_job])["edges"]}
        for u, v in zip(walk, walk[1:]):
            i, j = sorted((index[json.dumps(u)], index[json.dumps(v)]))
            if (i, j) not in edges:
                return f"hop {u} -> {v} is not an edge of {skeleton_job}"
        return None

    return check


def _facets_check(plan: Plan, inp: str):
    total, nonneg, clique, other = FACETS[inp]

    def check(out: bytes, seen: dict) -> Optional[str]:
        obj = json.loads(out)
        got = (len(obj["facets"]), obj["classification"])
        want = (total, {"nonnegativity": nonneg, "clique": clique, "other": other})
        if got != want:
            return f"(facets, classification) = {got}"
        if len(obj["non_clique_facets"]) != other:
            return "non_clique_facets does not match the classification"
        pos = {json.dumps(x): k for k, x in enumerate(plan.ground[inp])}
        points = [[pos[json.dumps(x)] for x in v] for v in plan.vertices[inp]]
        dim = len(pos)
        for q in obj["facets"]:
            vals = [sum(q["coeffs"][k] for k in pt) for pt in points]
            if max(vals) > q["rhs"]:
                return f"facet {q} is violated by a vertex"
            if sum(v == q["rhs"] for v in vals) < dim:
                return f"facet {q} is tight on fewer than {dim} vertices"
        return None

    return check


def _verify_check(suite: str, seed: Optional[int]):
    def check(out: bytes, seen: dict) -> Optional[str]:
        obj = json.loads(out)
        reports = obj["reports"]
        if [r["suite"] for r in reports] != [suite]:
            return "report is not for the requested suite"
        if seed is not None and reports[0]["seed"] != seed:
            return "report seed differs from the requested seed"
        if not reports[0]["checks"]:
            return "suite ran no checks"
        if obj["passed"] is not True:
            failing = [c["name"] for c in reports[0]["checks"] if not c["passed"]]
            return f"verify failed: {failing[:5]}"
        return None

    return check


# -- job constructors -----------------------------------------------------


def skeleton_job(plan: Plan, inp: str) -> Job:
    return Job(
        f"skeleton:{inp}", "skeleton", ["skeleton", "--input", plan.path(inp)],
        _skeleton_check(plan, inp, "condition-E"),
    )


def oracle_job(plan: Plan, inp: str) -> Job:
    return Job(
        f"oracle:{inp}", "oracle",
        ["skeleton", "--input", plan.path(inp), "--oracle"],
        _skeleton_check(plan, inp, "oracle", ref=f"ref-skeleton:{inp}"),
    )


def diameter_job(plan: Plan, inp: str) -> Job:
    return Job(
        f"diameter:{inp}", "diameter", ["diameter", "--input", plan.path(inp)],
        _diameter_check(inp),
    )


def path_jobs(plan: Plan, inp: str, count: int) -> list[Job]:
    """count walks between seeded vertex pairs; checked against the
    skeleton job on the same input, which must run earlier in the pass."""
    verts = plan.vertices[inp]
    rng = random.Random(f"path/{plan.seed}/{inp}")
    jobs = []
    for k in range(count):
        i, j = rng.sample(range(len(verts)), 2)
        a, b = verts[i], verts[j]
        argv = ["path", "--input", plan.path(inp),
                "--from", json.dumps(a), "--to", json.dumps(b)]
        jobs.append(Job(f"path:{inp}:{k}", "path", argv,
                        _path_check(plan, inp, a, b, f"skeleton:{inp}")))
    return jobs


def facets_job(plan: Plan, inp: str, caps: Optional[tuple[int, int]] = None) -> Job:
    argv = ["facets", "--input", plan.path(inp)]
    if caps:
        argv += ["--facet-vertex-cap", str(caps[0]), "--facet-dim-cap", str(caps[1])]
    return Job(f"facets:{inp}", "facets", argv, _facets_check(plan, inp))


def verify_job(suite: str, seed: Optional[int] = None, graphs: int = 0, max_n: int = 0) -> Job:
    argv = ["verify", "--suite", suite]
    if seed is not None:
        argv += ["--seed", str(seed), "--graphs", str(graphs), "--max-n", str(max_n)]
    return Job(f"verify:{suite}", "verify", argv, _verify_check(suite, seed))


def ref_skeleton_job(plan: Plan, inp: str) -> Job:
    job = skeleton_job(plan, inp)
    job.name = f"ref-skeleton:{inp}"
    return job


# -- the workloads --------------------------------------------------------


def _ladder(graphs: list[str], paths: list[str], walks: int):
    def jobs(plan: Plan) -> list[Job]:
        out = [skeleton_job(plan, i) for i in graphs]
        out += [diameter_job(plan, i) for i in graphs]
        for i in paths:
            out += path_jobs(plan, i, walks)
        return out

    return jobs


def _crosscheck(inputs: list[str], graphs: int, max_n: int, matroids: bool):
    def jobs(plan: Plan) -> list[Job]:
        out = [oracle_job(plan, i) for i in inputs]
        out.append(verify_job("oracle-vs-E", plan.seed, graphs, max_n))
        if matroids:
            out.append(verify_job("matroid-E"))
        out.append(verify_job("remark43"))
        return out

    def references(plan: Plan) -> list[Job]:
        return [ref_skeleton_job(plan, i) for i in inputs]

    return jobs, references


def _facets(default_caps: list[str], lifted: list[str], graphs: int, max_n: int):
    def jobs(plan: Plan) -> list[Job]:
        out = [facets_job(plan, i) for i in default_caps]
        out += [
            facets_job(plan, i, caps=(VERTICES[i], len(plan.ground[i])))
            for i in lifted
        ]
        out.append(verify_job("facets-always", plan.seed, graphs, max_n))
        return out

    return jobs


WORKLOADS = {
    "skeleton-ladder": Workload(
        "skeleton-ladder",
        "E-test subset walk and per-source BFS on nc/nn/bell and B5; "
        "no LP, no double description",
        ["nc6", "nc7", "nn7", "bell6", "B5"],
        _ladder(["nc6", "nc7", "nn7", "bell6", "B5"], ["nc7", "B5"], 2),
    ),
    "oracle-crosscheck": Workload(
        "oracle-crosscheck",
        "exact phase-one simplex: a few mid-size LP skeletons and "
        "thousands of tiny LPs in the verify suites",
        ["nc5", "bell5", "B4"],
        *_crosscheck(["nc5", "bell5", "B4"], 100, 5, matroids=True),
    ),
    "facets-dd": Workload(
        "facets-dd",
        "double-description ray adjacency scans on two 19-arc subgraphs of "
        "nc7, plus facet certification by exact rank over a random corpus",
        ["nc5", "nc6", "nn6", "bell5", *NC_SUBGRAPHS],
        _facets(["nc5", "nc6", "nn6", "bell5"], list(NC_SUBGRAPHS), 100, 6),
    ),
}

# Tiny versions of each workload: the same job kinds on small inputs.
SMOKE = {
    "skeleton-ladder": Workload(
        "skeleton-ladder", "smoke", ["nc4", "bell3", "B3"],
        _ladder(["nc4", "bell3", "B3"], ["nc4", "B3"], 1),
    ),
    "oracle-crosscheck": Workload(
        "oracle-crosscheck", "smoke", ["bell3", "B3"],
        *_crosscheck(["bell3", "B3"], 5, 4, matroids=False),
    ),
    "facets-dd": Workload(
        "facets-dd", "smoke", ["bell3", "nc4"],
        _facets(["bell3"], ["nc4"], 5, 4),
    ),
}
