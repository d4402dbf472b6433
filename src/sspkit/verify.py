"""Cross-validation suites: every claim the toolkit rests on, re-checked
against an independent route on seeded corpora. The CLI `verify` command
is a thin wrapper around these.

Each suite takes seed, graphs and max_n and returns (params, checks), its
checks a list of (name, passed, details) triples in the order they ran; it
does all its work in the call, so timing a SUITES entry times the suite.
run_suites alone builds the report that `verify` prints: "suite", "seed",
"params", "checks" (as {"name", "passed", "details"} dicts) and "passed":
the suite ran at least one check and every check passed."""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .graphs import (
    SimpleGraph, bits, connected_components, enumerate_max_cliques,
    enumerate_stable_sets, is_union_of_complete_graphs,
)
from .skeleton import (
    ZeroOnePolytope, birkhoff_restrict, build_skeleton_E, diameter, flip_path,
    is_edge_E, is_edge_walk, quasimatroid_exchange, unique_sum_skeleton,
)

# a suite's (params, checks), each check a (name, passed, details) triple
Suite = tuple[dict, list[tuple[str, bool, dict]]]


def _random_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Each pair i < j of 1..n independently with probability 1/2."""
    return [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.getrandbits(1)
    ]


def random_graph(rng: random.Random, n: int) -> SimpleGraph:
    """Each of the n-choose-2 edges independently with probability 1/2."""
    return SimpleGraph.from_edges(range(1, n + 1), _random_pairs(rng, n))


def random_graph_corpus(
    seed: int, count: int, max_n: int
) -> list[SimpleGraph]:
    """Deterministic list of `count` graphs, n cycling over 2..max_n."""
    if max_n < 2:
        raise ValueError("corpus needs max_n >= 2")
    rng = random.Random(seed)
    sizes = list(range(2, max_n + 1))
    return [random_graph(rng, sizes[k % len(sizes)]) for k in range(count)]


def _walks_ok(rng: random.Random, p: ZeroOnePolytope, k: int) -> bool:
    """flip_path between k seeded vertex pairs of p gives valid edge walks
    of at most rank hops. Each pair is drawn from the vertex indices, so
    no list of all pairs is built; one vertex has no pair to walk."""
    nv = len(p.vertices)
    for _ in range(k if nv > 1 else 0):
        i, j = rng.sample(range(nv), 2)
        a, b = p.vertices[i], p.vertices[j]
        walk = flip_path(p, a, b)
        if not (walk[0] == a and walk[-1] == b and len(walk) - 1 <= p.rank
                and is_edge_walk(p, walk)):
            return False
    return True


def suite_oracle_vs_e(seed: int, graphs: int, max_n: int) -> Suite:
    """Three routes give one skeleton on stable-set and top-cardinality
    polytopes of the random corpus: the unique-sum test, the connectivity
    test of build_skeleton_E and the LP oracle."""
    from .geometry import build_skeleton_oracle

    checks = []
    for idx, g in enumerate(random_graph_corpus(seed, graphs, max_n)):
        ssp = ZeroOnePolytope.from_graph(g)
        se = build_skeleton_E(ssp)
        bp = birkhoff_restrict(g)
        be = build_skeleton_E(bp)
        ok = all(unique_sum_skeleton(p).rows == s.rows == build_skeleton_oracle(p).rows
                 for p, s in ((ssp, se), (bp, be)))
        checks.append((f"graph-{idx}", ok, {
            "n": g.n, "m": g.edge_count(), "ssp_vertices": len(ssp.vertices),
            "ssp_edges": se.edge_count, "bp_vertices": len(bp.vertices),
            "bp_edges": be.edge_count,
        }))
    return {"graphs": graphs, "max_n": max_n}, checks


def suite_diameter_bounds(seed: int, graphs: int, max_n: int) -> Suite:
    """Skeleton diameters within the top cardinality r, and the
    constructive walks valid with at most r hops."""
    from .families import build_bell_graph, build_empty_graph

    checks = []
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
            and _walks_ok(rng, ssp, 12)
            and _walks_ok(rng, bp, 8)
        )
        checks.append((f"graph-{idx}", ok, {"n": g.n, "r": r, "ssp": d_ssp, "bp": d_bp}))

    for name, g, d in (("cube-3", build_empty_graph(3), 3),
                       ("bell-3", build_bell_graph(3), 2)):
        p = ZeroOnePolytope.from_graph(g)
        ok = diameter(build_skeleton_E(p)) == d and p.rank == d
        checks.append((name, ok, {"expected": d}))
    return {"graphs": graphs, "max_n": max_n}, checks


def suite_facets_always(seed: int, graphs: int, max_n: int) -> Suite:
    """Nonnegativity and maximal-clique inequalities are facets on the whole
    corpus; chain-polytope facet counts match ground size plus maximal
    cliques; the 4th bell polytope's facet list is exactly the expected one."""
    from .families import (
        build_bell_graph, build_comparability_graph, build_nonnesting_graph,
    )
    from .geometry import always_facet_inequalities, enumerate_facets, is_facet

    checks = []
    for idx, g in enumerate(random_graph_corpus(seed, graphs, max_n)):
        ssp = ZeroOnePolytope.from_graph(g)
        qs = always_facet_inequalities(g)
        try:
            ok = all(is_facet(ssp, q) for q in qs)
        except ValueError:  # is_facet refuses an invalid inequality
            ok = False
        checks.append((f"graph-{idx}", ok, {"n": g.n, "inequalities": len(qs)}))

    chains = [(f"chain-nn-{n}", build_nonnesting_graph(n), {}) for n in (2, 3, 4)]
    rng = random.Random(seed ^ 0xBED)
    for k in range(10):  # random orders: each i < j with probability 1/2, closed
        n = 3 + (k % 4)
        g = build_comparability_graph(range(1, n + 1), _random_pairs(rng, n))
        chains.append((f"chain-poset-{k}", g, {"n": n}))
    for name, g, details in chains:
        facets = len(enumerate_facets(ZeroOnePolytope.from_graph(g)))
        want = len(g.ground) + len(enumerate_max_cliques(g))
        checks.append((name, facets == want,
                       {**details, "facets": facets, "expected": want}))

    g4 = build_bell_graph(4)
    got = set(enumerate_facets(ZeroOnePolytope.from_graph(g4)))
    expect = set(always_facet_inequalities(g4))
    checks.append(("bell-4-exact", got == expect,
                   {"facets": len(got), "expected": len(expect)}))
    return {"graphs": graphs, "max_n": max_n}, checks


# name -> the matroid spec that `build --family matroid` reads
MATROID_CATALOG: dict[str, dict] = {
    "uniform-1-3": {"uniform": [3, 1]},
    "uniform-2-4": {"uniform": [4, 2]},
    "uniform-2-5": {"uniform": [5, 2]},
    "partition-2-3": {"partition": [2, 3]},
    "graphic-k4": {"graphic": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
}


def suite_matroid_e(seed: int, graphs: int, max_n: int) -> Suite:
    """On the matroid catalog: unique-sum skeleton equals the LP oracle for
    independence and basis polytopes, basis adjacency is the two-element
    swap, diameters respect the rank, and the exchange steps agree."""
    from .families import build_complete_graph
    from .geometry import build_skeleton_oracle
    from .matroids import (
        basis_exchange_adjacent, basis_polytope, build_uniform, strong_exchange,
    )
    from .serialize import matroid_from_json

    checks = []
    for name, spec in MATROID_CATALOG.items():
        pi = matroid_from_json(spec)
        pb = basis_polytope(pi)
        se_i = build_skeleton_E(pi)
        ok = se_i.rows == build_skeleton_oracle(pi).rows
        se_b = build_skeleton_E(pb)
        ok = ok and se_b.rows == build_skeleton_oracle(pb).rows

        bases = pb.vertices
        ok = ok and se_b.rows == tuple(
            tuple(j for j in range(i + 1, len(bases))
                  if basis_exchange_adjacent(pi, bases[i], bases[j]))
            for i in range(len(bases))
        )

        d_i, d_b = diameter(se_i), diameter(se_b)
        ok = ok and d_i is not None and d_i <= pi.rank
        ok = ok and d_b is not None and d_b <= pi.rank

        exchange_ok = True
        fam = pi.index
        for a in bases:
            for b in bases:
                if a == b:
                    continue
                for x in bits(a & ~b):
                    y = strong_exchange(pi, a, b, x)
                    exchange_ok = exchange_ok and (
                        (a ^ (1 << x)) | (1 << y) in fam
                        and (b ^ (1 << y)) | (1 << x) in fam
                    )
                    e, f = quasimatroid_exchange(pb, a, b, x)
                    new = (a & ~e) | f
                    exchange_ok = exchange_ok and (
                        e & ~(a & ~b) == 0
                        and f & ~(b & ~a) == 0
                        and e.bit_count() == f.bit_count()
                        and bool(e & (1 << x))
                        and new in fam
                        and is_edge_E(pb, a, new)
                    )
        checks.append((name, ok and exchange_ok, {
            "independents": len(pi.vertices), "bases": len(bases), "rank": pi.rank,
            "diameter_bases": d_b,
        }))

    u13 = build_uniform(3, 1)
    k3 = ZeroOnePolytope.from_graph(build_complete_graph(3))
    u24 = basis_polytope(build_uniform(4, 2))
    checks += [
        ("uniform-1-3-is-triangle-ssp", sorted(u13.vertices) == sorted(k3.vertices), {}),
        ("uniform-2-4-octahedron",
         len(u24.vertices) == 6 and build_skeleton_E(u24).edge_count == 12, {}),
    ]
    return {"catalog": sorted(MATROID_CATALOG)}, checks


def suite_prop62(seed: int, graphs: int, max_n: int) -> Suite:
    """Stable sets form a matroid exactly when every component is complete;
    in that case they agree with the obvious partition matroid."""
    from .matroids import check_matroid_axioms

    checks = []
    for idx, g in enumerate(random_graph_corpus(seed, graphs, max_n)):
        stabs = enumerate_stable_sets(g)
        ok_matroid = check_matroid_axioms(g.ground, stabs) is None
        expected = is_union_of_complete_graphs(g)
        ok = ok_matroid == expected
        if ok and expected:
            comps = connected_components(g, (1 << g.n) - 1)
            part = {
                m
                for m in range(1 << g.n)
                if all((m & c).bit_count() <= 1 for c in comps)
            }
            ok = part == set(stabs)
        checks.append((f"graph-{idx}", ok, {"n": g.n, "matroid": ok_matroid}))
    return {"graphs": graphs, "max_n": max_n}, checks


def suite_remark43(seed: int, graphs: int, max_n: int) -> Suite:
    """The pinned disagreement family, plus the modified cube that agrees
    with the oracle without being any graph's stable-set family."""
    from .counterexample import is_stable_set_family, modified_cube, verify_remark
    from .geometry import build_skeleton_oracle

    checks = verify_remark()
    cube = modified_cube()
    checks += [
        ("modified-cube-agreement",
         build_skeleton_E(cube).rows == build_skeleton_oracle(cube).rows,
         {"vertices": len(cube.vertices)}),
        ("modified-cube-not-ssp",
         not is_stable_set_family(cube.ground, cube.vertices), {}),
    ]
    return {}, checks


def suite_partitions(seed: int, graphs: int, max_n: int) -> Suite:
    """Arc encodings biject stable sets with set partitions: all partitions
    for the bell graph, the nonnesting ones for nn, the noncrossing ones
    for nc; the nn and nc graphs coincide exactly up to n = 3, and nn is
    the comparability graph of interval containment (so its stable-set
    polytope is a chain polytope)."""
    from .families import (
        arcs_to_partition, bell_number, build_bell_graph, build_comparability_graph,
        build_noncrossing_graph, build_nonnesting_graph, catalan_number,
        containment_pairs, is_noncrossing, is_nonnesting, pair_ground,
    )

    checks = []
    for n in range(1, max_n + 1):
        stabs = enumerate_stable_sets(build_bell_graph(n))
        parts = [arcs_to_partition(n, s) for s in stabs]
        all_parts = set(parts)
        ok = len(parts) == len(all_parts) == bell_number(n)

        nn_g = build_nonnesting_graph(n)
        nn_img = {arcs_to_partition(n, s) for s in enumerate_stable_sets(nn_g)}
        ok = ok and nn_img == {p for p in all_parts if is_nonnesting(p)}
        ok = ok and len(nn_img) == catalan_number(n)

        nc_g = build_noncrossing_graph(n)
        nc_img = {arcs_to_partition(n, s) for s in enumerate_stable_sets(nc_g)}
        ok = ok and nc_img == {p for p in all_parts if is_noncrossing(p)}
        ok = ok and len(nc_img) == catalan_number(n)

        same = nn_g.adj == nc_g.adj
        ok = ok and same == (n <= 3)
        chain = build_comparability_graph(pair_ground(n).labels, containment_pairs(n))
        ok = ok and nn_g.adj == chain.adj
        checks.append((f"n-{n}", ok, {
            "partitions": len(all_parts), "nonnesting": len(nn_img),
            "noncrossing": len(nc_img),
        }))
    return {"max_n": max_n}, checks


SUITES: dict[str, Callable[[int, int, int], Suite]] = {
    "oracle-vs-E": suite_oracle_vs_e,
    "diameter-bounds": suite_diameter_bounds,
    "facets-always": suite_facets_always,
    "matroid-E": suite_matroid_e,
    "prop62": suite_prop62,
    "remark43": suite_remark43,
    "partitions": suite_partitions,
}


def run_suites(names: Sequence[str], seed: int, graphs: int, max_n: int) -> list[dict]:
    """The reports of the named suites, in order (see the module docstring)."""
    if graphs < 0:
        raise ValueError(f"graphs must not be negative, got {graphs}")
    if max_n < 0:
        raise ValueError(f"max_n must not be negative, got {max_n}")
    out = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        params, checks = SUITES[name](seed=seed, graphs=graphs, max_n=max_n)
        out.append({
            "suite": name, "seed": seed, "params": params,
            "checks": [{"name": c, "passed": ok, "details": d} for c, ok, d in checks],
            "passed": bool(checks) and all(ok for _, ok, _ in checks),
        })
    return out
