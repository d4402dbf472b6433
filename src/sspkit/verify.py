"""Cross-validation suites: every claim the toolkit rests on, re-checked
against an independent route on seeded corpora. The CLI `verify` command
is a thin wrapper around these."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .bitsets import bits
from .counterexample import (
    is_stable_set_family,
    modified_cube,
    verify_remark,
)
from .families import (
    arcs_to_partition,
    build_bell_graph,
    build_comparability_graph,
    build_complete_graph,
    build_empty_graph,
    build_noncrossing_graph,
    build_nonnesting_graph,
    is_noncrossing,
    is_nonnesting,
    Poset,
)
from .geometry import (
    always_facet_inequalities,
    build_skeleton_oracle,
    enumerate_facets,
    is_facet,
    is_valid,
)
from .graphs import (
    SimpleGraph,
    connected_components,
    enumerate_max_cliques,
    enumerate_stable_sets,
    is_union_of_complete_graphs,
)
from .matroids import (
    Matroid,
    basis_exchange_adjacent,
    basis_polytope,
    build_graphic,
    build_partition,
    build_uniform,
    check_matroid_axioms,
    independence_polytope,
    strong_exchange,
)
from .skeleton import (
    ZeroOnePolytope,
    birkhoff_restrict,
    bp_path,
    build_skeleton_E,
    diameter,
    is_edge_E,
    is_edge_walk,
    quasimatroid_exchange,
    ssp_path,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict


@dataclass
class SuiteReport:
    suite: str
    seed: int
    params: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **details) -> None:
        self.checks.append(CheckResult(name, bool(passed), details))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


def random_graph(rng: random.Random, n: int) -> SimpleGraph:
    """Each of the n-choose-2 edges independently with probability 1/2."""
    labels = range(1, n + 1)
    edges = [
        (i, j)
        for i in labels
        for j in range(i + 1, n + 1)
        if rng.getrandbits(1)
    ]
    return SimpleGraph.from_edges(labels, edges)


def random_graph_corpus(
    seed: int, count: int, max_n: int
) -> list[SimpleGraph]:
    """Deterministic list of `count` graphs, n cycling over 2..max_n."""
    if max_n < 2:
        raise ValueError("corpus needs max_n >= 2")
    rng = random.Random(seed)
    sizes = list(range(2, max_n + 1))
    return [random_graph(rng, sizes[k % len(sizes)]) for k in range(count)]


def random_poset(rng: random.Random, n: int) -> Poset:
    """Random strict order: i < j adopted with probability 1/2, then closed."""
    labels = range(1, n + 1)
    pairs = [
        (i, j)
        for i in labels
        for j in range(i + 1, n + 1)
        if rng.getrandbits(1)
    ]
    return Poset.from_relation(labels, pairs)


def _sample(rng: random.Random, items: Sequence, k: int) -> list:
    """Deterministic partial Fisher-Yates sample without replacement."""
    pool = list(items)
    k = min(k, len(pool))
    for i in range(k):
        j = i + rng.randrange(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def _walk_ok(
    p: ZeroOnePolytope, path: list[int], a: int, b: int, bound: int
) -> bool:
    if not path or path[0] != a or path[-1] != b:
        return False
    return len(path) - 1 <= bound and is_edge_walk(p, path)


def suite_oracle_vs_e(
    seed: int = 7, graphs: int = 200, max_n: int = 6
) -> SuiteReport:
    """Unique-sum skeleton equals LP-oracle skeleton on stable-set and
    top-cardinality polytopes of the random corpus."""
    rep = SuiteReport(
        "oracle-vs-E", seed, {"graphs": graphs, "max_n": max_n}
    )
    for idx, g in enumerate(random_graph_corpus(seed, graphs, max_n)):
        ssp = ZeroOnePolytope.from_graph(g)
        e_edges = build_skeleton_E(ssp).edges
        o_edges = build_skeleton_oracle(ssp).edges
        bp = birkhoff_restrict(g)
        be = build_skeleton_E(bp).edges
        bo = build_skeleton_oracle(bp).edges
        rep.add(
            f"graph-{idx}",
            e_edges == o_edges and be == bo,
            n=g.n,
            m=g.edge_count(),
            ssp_vertices=len(ssp.vertices),
            ssp_edges=len(e_edges),
            bp_vertices=len(bp.vertices),
            bp_edges=len(be),
        )
    return rep


def suite_diameter_bounds(
    seed: int = 7, graphs: int = 200, max_n: int = 6
) -> SuiteReport:
    """Skeleton diameters within the top cardinality r, and the
    constructive walks valid with at most r hops."""
    rep = SuiteReport(
        "diameter-bounds", seed, {"graphs": graphs, "max_n": max_n}
    )
    rng = random.Random(seed ^ 0x5EED)
    for idx, g in enumerate(random_graph_corpus(seed, graphs, max_n)):
        ssp = ZeroOnePolytope.from_graph(g)
        r = ssp.rank
        d_ssp = diameter(build_skeleton_E(ssp))
        bp = birkhoff_restrict(g)
        d_bp = diameter(build_skeleton_E(bp))
        ok = (
            d_ssp is not None
            and d_ssp <= r
            and d_bp is not None
            and d_bp <= r
        )
        pairs = [
            (a, b)
            for a in range(len(ssp.vertices))
            for b in range(a + 1, len(ssp.vertices))
        ]
        for a, b in _sample(rng, pairs, 12):
            va, vb = ssp.vertices[a], ssp.vertices[b]
            walk = ssp_path(ssp, va, vb)
            ok = ok and _walk_ok(ssp, walk, va, vb, r)
        bpairs = [
            (a, b)
            for a in range(len(bp.vertices))
            for b in range(a + 1, len(bp.vertices))
        ]
        for a, b in _sample(rng, bpairs, 8):
            va, vb = bp.vertices[a], bp.vertices[b]
            walk = bp_path(bp, va, vb)
            ok = ok and _walk_ok(bp, walk, va, vb, r)
        rep.add(f"graph-{idx}", ok, n=g.n, r=r, ssp=d_ssp, bp=d_bp)

    cube = ZeroOnePolytope.from_graph(build_empty_graph(3))
    rep.add(
        "cube-3",
        diameter(build_skeleton_E(cube)) == 3 and cube.rank == 3,
        expected=3,
    )
    bell3 = ZeroOnePolytope.from_graph(build_bell_graph(3))
    rep.add(
        "bell-3",
        diameter(build_skeleton_E(bell3)) == 2 and bell3.rank == 2,
        expected=2,
    )
    return rep


def suite_facets_always(
    seed: int = 7, graphs: int = 200, max_n: int = 6
) -> SuiteReport:
    """Nonnegativity and maximal-clique inequalities are facets on the whole
    corpus; chain-polytope facet counts match ground size plus maximal
    cliques; the 4th bell polytope's facet list is exactly the expected one."""
    rep = SuiteReport(
        "facets-always", seed, {"graphs": graphs, "max_n": max_n}
    )
    for idx, g in enumerate(random_graph_corpus(seed, graphs, max_n)):
        ssp = ZeroOnePolytope.from_graph(g)
        qs = always_facet_inequalities(g)
        ok = all(is_valid(ssp, q) and is_facet(ssp, q) for q in qs)
        rep.add(f"graph-{idx}", ok, n=g.n, inequalities=len(qs))

    for n in (2, 3, 4):
        g = build_nonnesting_graph(n)
        ssp = ZeroOnePolytope.from_graph(g)
        facets = enumerate_facets(ssp)
        want = len(g.ground) + len(enumerate_max_cliques(g))
        rep.add(
            f"chain-nn-{n}",
            len(facets) == want,
            facets=len(facets),
            expected=want,
        )

    rng = random.Random(seed ^ 0xBED)
    for k in range(10):
        n = 3 + (k % 4)
        poset = random_poset(rng, n)
        g = build_comparability_graph(poset)
        ssp = ZeroOnePolytope.from_graph(g)
        facets = enumerate_facets(ssp)
        want = len(g.ground) + len(enumerate_max_cliques(g))
        rep.add(
            f"chain-poset-{k}",
            len(facets) == want,
            n=n,
            facets=len(facets),
            expected=want,
        )

    g4 = build_bell_graph(4)
    ssp4 = ZeroOnePolytope.from_graph(g4)
    got = set(enumerate_facets(ssp4))
    expect = set(always_facet_inequalities(g4))
    rep.add("bell-4-exact", got == expect, facets=len(got), expected=len(expect))
    return rep


MATROID_CATALOG: dict[str, Callable[[], Matroid]] = {
    "uniform-1-3": lambda: build_uniform(3, 1),
    "uniform-2-4": lambda: build_uniform(4, 2),
    "uniform-2-5": lambda: build_uniform(5, 2),
    "partition-2-3": lambda: build_partition([2, 3]),
    "graphic-k4": lambda: build_graphic(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    ),
}


def suite_matroid_e(
    seed: int = 7, graphs: int = 0, max_n: int = 0
) -> SuiteReport:
    """On the matroid catalog: unique-sum skeleton equals the LP oracle for
    independence and basis polytopes, basis adjacency is the two-element
    swap, diameters respect the rank, and the exchange steps agree."""
    rep = SuiteReport("matroid-E", seed, {"catalog": sorted(MATROID_CATALOG)})
    for name, make in MATROID_CATALOG.items():
        m = make()
        pi = independence_polytope(m)
        pb = basis_polytope(m)
        se_i = build_skeleton_E(pi)
        ok = se_i.edges == build_skeleton_oracle(pi).edges
        se_b = build_skeleton_E(pb)
        ok = ok and se_b.edges == build_skeleton_oracle(pb).edges

        bases = pb.vertices
        swap_edges = {
            (i, j)
            for i in range(len(bases))
            for j in range(i + 1, len(bases))
            if basis_exchange_adjacent(m, bases[i], bases[j])
        }
        ok = ok and set(se_b.edges) == swap_edges

        d_i, d_b = diameter(se_i), diameter(se_b)
        ok = ok and d_i is not None and d_i <= m.rank
        ok = ok and d_b is not None and d_b <= m.rank

        exchange_ok = True
        for a in bases:
            for b in bases:
                if a == b:
                    continue
                for x in bits(a & ~b):
                    y = strong_exchange(m, a, b, x)
                    fam = set(m.independents)
                    exchange_ok = exchange_ok and (
                        (a ^ (1 << x)) | (1 << y) in fam
                        and (b ^ (1 << y)) | (1 << x) in fam
                    )
                    e, f = quasimatroid_exchange(bases, a, b, x)
                    new = (a & ~e) | f
                    exchange_ok = exchange_ok and (
                        e & ~(a & ~b) == 0
                        and f & ~(b & ~a) == 0
                        and e.bit_count() == f.bit_count()
                        and bool(e & (1 << x))
                        and new in fam
                        and is_edge_E(pb, pb.index[a], pb.index[new])
                    )
        ok = ok and exchange_ok
        rep.add(
            name,
            ok,
            independents=len(pi.vertices),
            bases=len(bases),
            rank=m.rank,
            diameter_bases=d_b,
        )

    u13 = independence_polytope(build_uniform(3, 1))
    k3 = ZeroOnePolytope.from_graph(build_complete_graph(3))
    rep.add(
        "uniform-1-3-is-triangle-ssp",
        sorted(u13.vertices) == sorted(k3.vertices),
    )
    u24 = basis_polytope(build_uniform(4, 2))
    rep.add(
        "uniform-2-4-octahedron",
        len(u24.vertices) == 6
        and len(build_skeleton_E(u24).edges) == 12,
    )
    return rep


def suite_prop62(
    seed: int = 7, graphs: int = 200, max_n: int = 6
) -> SuiteReport:
    """Stable sets form a matroid exactly when every component is complete;
    in that case they agree with the obvious partition matroid."""
    rep = SuiteReport("prop62", seed, {"graphs": graphs, "max_n": max_n})
    for idx, g in enumerate(random_graph_corpus(seed, graphs, max_n)):
        stabs = enumerate_stable_sets(g)
        ok_matroid = check_matroid_axioms(g.ground, stabs) is None
        expected = is_union_of_complete_graphs(g)
        ok = ok_matroid == expected
        if ok and expected:
            comps = connected_components(g)
            part = {
                m
                for m in range(1 << g.n)
                if all((m & c).bit_count() <= 1 for c in comps)
            }
            ok = part == set(stabs)
        rep.add(f"graph-{idx}", ok, n=g.n, matroid=ok_matroid)
    return rep


def suite_remark43(
    seed: int = 7, graphs: int = 0, max_n: int = 0
) -> SuiteReport:
    """The pinned disagreement family, plus the modified cube that agrees
    with the oracle without being any graph's stable-set family."""
    rep = SuiteReport("remark43", seed, {})
    for clause in verify_remark().clauses:
        rep.add(clause.name, clause.passed, note=clause.details)
    cube = modified_cube()
    rep.add(
        "modified-cube-agreement",
        build_skeleton_E(cube).edges == build_skeleton_oracle(cube).edges,
        vertices=len(cube.vertices),
    )
    rep.add(
        "modified-cube-not-ssp",
        not is_stable_set_family(cube.ground, cube.vertices),
    )
    return rep


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def suite_partitions(
    seed: int = 7, graphs: int = 0, max_n: int = 7
) -> SuiteReport:
    """Arc encodings biject stable sets with set partitions: all partitions
    for the bell graph, the nonnesting ones for nn, the noncrossing ones
    for nc; the nn and nc graphs coincide exactly up to n = 3."""
    rep = SuiteReport("partitions", seed, {"max_n": max_n})
    for n in range(1, max_n + 1):
        bell_g = build_bell_graph(n)
        stabs = enumerate_stable_sets(bell_g)
        parts = [arcs_to_partition(n, s, bell_graph=bell_g) for s in stabs]
        all_parts = set(parts)
        ok = len(parts) == len(all_parts) == bell_number(n)

        nn_g = build_nonnesting_graph(n)
        nn_img = {
            arcs_to_partition(n, s, bell_graph=bell_g)
            for s in enumerate_stable_sets(nn_g)
        }
        ok = ok and nn_img == {p for p in all_parts if is_nonnesting(p)}
        ok = ok and len(nn_img) == catalan_number(n)

        nc_g = build_noncrossing_graph(n)
        nc_img = {
            arcs_to_partition(n, s, bell_graph=bell_g)
            for s in enumerate_stable_sets(nc_g)
        }
        ok = ok and nc_img == {p for p in all_parts if is_noncrossing(p)}
        ok = ok and len(nc_img) == catalan_number(n)

        same = nn_g.adj == nc_g.adj
        ok = ok and same == (n <= 3)
        rep.add(
            f"n-{n}",
            ok,
            partitions=len(all_parts),
            nonnesting=len(nn_img),
            noncrossing=len(nc_img),
        )
    return rep


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "oracle-vs-E": suite_oracle_vs_e,
    "diameter-bounds": suite_diameter_bounds,
    "facets-always": suite_facets_always,
    "matroid-E": suite_matroid_e,
    "prop62": suite_prop62,
    "remark43": suite_remark43,
    "partitions": suite_partitions,
}


def run_suites(
    names: Sequence[str],
    seed: int = 7,
    graphs: int = 200,
    max_n: int = 6,
) -> list[SuiteReport]:
    out = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        out.append(
            SUITES[name](seed=seed, graphs=graphs, max_n=max_n)
        )
    return out
