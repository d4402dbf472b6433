"""Top-level acceptance gate: ten criteria, exact equality, timed budgets.

Each test is self-contained and prints one verdict line via conftest.
Expected values are frozen from independent derivations; nothing here is
tuned to make a computation look right.
"""

import time

from sspkit.counterexample import (
    REMARK_FAMILY,
    SET_A,
    SET_B,
    WITNESSES,
    maximal_family_polytope,
    modified_cube,
    remark_graph,
    verify_remark,
)
from sspkit.families import (
    bell_number,
    build_bell_graph,
    build_empty_graph,
    build_noncrossing_graph,
    build_nonnesting_graph,
    catalan_number,
)
from sspkit.geometry import (
    Inequality,
    always_facet_inequalities,
    classify_inequality,
    enumerate_facets,
    is_facet,
)
from sspkit.graphs import ZeroOnePolytope, birkhoff_restrict
from sspkit.linalg import independent_rows
from sspkit.matroids import basis_exchange_adjacent, basis_polytope
from sspkit.oracle import build_skeleton_oracle, oracle_is_edge
from sspkit.skeleton import (
    build_skeleton_E,
    diameter,
    flip_path,
    is_edge_E,
    unique_sum_skeleton,
)
from sspkit.serialize import matroid_from_json
from sspkit.verify import MATROID_CATALOG, random_graph_corpus, run_suites

SEED = 7
CORPUS_SIZE = 200
MAX_N = 6


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"budget exceeded: {elapsed:.1f}s"


def polytope_dim(p):
    """Rank of the lifted vertex rows (1, e_v), less one."""
    lifted = [(1, *((v >> k) & 1 for k in range(p.n))) for v in p.vertices]
    return len(independent_rows(lifted)) - 1


def corpus():
    return random_graph_corpus(SEED, CORPUS_SIZE, MAX_N)


def test_criterion_1_three_pair_polytope_reproduction():
    budget = Budget(1.0)
    bell = build_bell_graph(3)
    assert bell.adj == build_nonnesting_graph(3).adj
    assert bell.adj == build_noncrossing_graph(3).adj

    p = ZeroOnePolytope.from_graph(bell)
    gs = p.ground
    want_vertices = {
        gs.mask_of([]),
        gs.mask_of([(1, 2)]),
        gs.mask_of([(1, 3)]),
        gs.mask_of([(2, 3)]),
        gs.mask_of([(1, 2), (2, 3)]),
    }
    assert set(p.vertices) == want_vertices
    assert len(p.vertices) == 5

    s = build_skeleton_E(p)
    assert len(s.edges) == 8
    origin = p.index[0]
    top = p.index[gs.mask_of([(1, 2), (2, 3)])]
    assert tuple(sorted((origin, top))) not in s.edges

    assert polytope_dim(p) == 3
    budget.check()


def test_criterion_2_oracle_equivalence_on_corpus():
    budget = Budget(300.0)
    graphs = corpus()
    assert len(graphs) >= 200
    for g in graphs:
        ssp = ZeroOnePolytope.from_graph(g)
        assert build_skeleton_E(ssp).edges == build_skeleton_oracle(ssp).edges
        assert unique_sum_skeleton(ssp).edges == build_skeleton_E(ssp).edges
        bp = birkhoff_restrict(g)
        assert build_skeleton_E(bp).edges == build_skeleton_oracle(bp).edges
        assert unique_sum_skeleton(bp).edges == build_skeleton_E(bp).edges
    budget.check()


def test_criterion_3_nine_vertex_family():
    budget = Budget(10.0)
    clauses = {name: passed for name, passed, _ in verify_remark()}
    # oracle refuses the pair
    assert clauses["oracle-refuses-AB"]
    # explicit all-ones certificate: e_A - e_B = sum of three member steps
    assert clauses["three-member-identity"]
    # and yet e_A + e_B decomposes uniquely (so the sum test claims an edge)
    assert clauses["unique-sum-still-claims-edge"]
    assert all(clauses.values())

    p = maximal_family_polytope(remark_graph())
    a, b = p.ground.mask_of(SET_A), p.ground.mask_of(SET_B)
    assert is_edge_E(p, a, b) and not oracle_is_edge(p, a, b)
    assert len(REMARK_FAMILY) == 12 and len(WITNESSES) == 3
    budget.check()


def test_criterion_4_matroid_catalog():
    budget = Budget(120.0)
    assert set(MATROID_CATALOG) == {
        "uniform-1-3", "uniform-2-4", "uniform-2-5",
        "partition-2-3", "graphic-k4",
    }
    for name, spec in MATROID_CATALOG.items():
        m = matroid_from_json(spec)
        for p in (m, basis_polytope(m)):
            assert build_skeleton_E(p).edges == build_skeleton_oracle(p).edges, name
        bp = basis_polytope(m)
        s = build_skeleton_E(bp)
        edges = set(s.edges)
        k = len(bp.vertices)
        for i in range(k):
            for j in range(i + 1, k):
                want = basis_exchange_adjacent(m, bp.vertices[i], bp.vertices[j])
                assert ((i, j) in edges) == want, name
    budget.check()


def test_criterion_5_matroid_stable_set_characterization():
    budget = Budget(60.0)
    [report] = run_suites(["prop62"], SEED, CORPUS_SIZE, MAX_N)
    assert len(report["checks"]) >= 200
    assert report["passed"]
    budget.check()


def test_criterion_6_always_facets_and_chain_counts():
    budget = Budget(300.0)

    # every nonnegativity and maximal-clique inequality is a facet
    for g in corpus():
        p = ZeroOnePolytope.from_graph(g)
        for q in always_facet_inequalities(g):
            assert is_facet(p, q)

    # comparability-graph polytopes: facet count is ground + maximal cliques
    [report] = run_suites(["facets-always"], SEED, 25, 5)
    assert report["passed"]
    for n in (2, 3, 4):
        g = build_nonnesting_graph(n)
        p = ZeroOnePolytope.from_graph(g)
        from sspkit.graphs import enumerate_max_cliques

        assert len(enumerate_facets(p)) == g.n + len(enumerate_max_cliques(g))

    # the 4-element pair family: exactly nonnegativity + row/column cliques
    bell4 = build_bell_graph(4)
    p4 = ZeroOnePolytope.from_graph(bell4)
    assert set(enumerate_facets(p4)) == set(always_facet_inequalities(bell4))
    assert len(enumerate_facets(p4)) == 10
    budget.check()


# Frozen reference support for the lone non-clique facet of the 132-vertex
# noncrossing polytope: the ten arcs (i, j) with j - i >= 2, that is, every
# arc except the five (i, i+1), with right-hand side 2. Derivation: the
# inequality holds on all 132 vertices, is tight on 20 of them, and the
# differences of those 20 have rank 14 = dim - 1 under fraction-free integer
# elimination; it is invariant under the reflection i -> 7 - i, an
# automorphism of the noncrossing graph. A former value of this tuple held
# (2,3), (4,5), (5,6) in place of (1,4), (3,5), (3,6) and was refuted by the
# vertex {(1,3),(4,5),(5,6)}, on which its left side is 3.
REFERENCE_EXTRA_TERMS = (
    (1, 3), (1, 4), (1, 5), (1, 6), (2, 4),
    (2, 5), (2, 6), (3, 5), (3, 6), (4, 6),
)


def _holds_on(p, q):
    return all(q.evaluate(v) <= q.rhs for v in p.vertices)


def _first_violation(p, q):
    v = next(v for v in p.vertices if q.evaluate(v) > q.rhs)
    return "vertex {} gives left side {} > {}".format(
        p.ground.labels_of(v), q.evaluate(v), q.rhs
    )


def test_criterion_7_noncrossing6_facets():
    budget = Budget(1800.0)
    g = build_noncrossing_graph(6)
    p = ZeroOnePolytope.from_graph(g)
    assert len(p.vertices) == 132
    assert polytope_dim(p) == 15

    facets = enumerate_facets(p, vertex_cap=150, dim_cap=16)
    assert len(facets) == 32

    by_kind = {"nonnegativity": [], "clique": [], "other": []}
    for q in facets:
        by_kind[classify_inequality(q)].append(q)
    assert len(by_kind["nonnegativity"]) == 15
    assert len(by_kind["clique"]) == 16
    assert len(by_kind["other"]) == 1

    # certification independent of the enumeration: every output is a
    # facet, and the 32 inequalities carve the 0/1 cube down to exactly
    # the vertex set
    for q in facets:
        assert is_facet(p, q)
    vset = set(p.vertices)
    survivors = [
        m for m in range(1 << 15) if all(q.evaluate(m) <= q.rhs for q in facets)
    ]
    assert set(survivors) == vset
    budget.check()

    extra = by_kind["other"][0]
    coeffs, rhs = extra.coeffs, extra.rhs
    assert rhs == 2
    assert sorted(set(coeffs)) == [0, 1] and sum(coeffs) == 10

    reference = [0] * 15
    for t in REFERENCE_EXTRA_TERMS:
        reference[p.ground.index(t)] = 1
    ref_ineq = Inequality(tuple(reference), 2)
    # the frozen reference must itself be a facet before it can pin anything
    assert _holds_on(p, ref_ineq), "frozen reference {} is not valid: {}".format(
        REFERENCE_EXTRA_TERMS, _first_violation(p, ref_ineq)
    )
    assert is_facet(p, ref_ineq), "frozen reference {} is not a facet".format(
        REFERENCE_EXTRA_TERMS
    )
    computed_terms = tuple(
        p.ground.labels[i] for i, c in enumerate(coeffs) if c
    )
    assert list(coeffs) == reference, (
        "computed extra facet {} != frozen reference {}".format(
            computed_terms, REFERENCE_EXTRA_TERMS
        )
    )


def test_criterion_8_diameter_bounds_and_walks():
    budget = Budget(120.0)
    import random

    rng = random.Random(SEED ^ 0xACCE)
    for g in corpus():
        ssp = ZeroOnePolytope.from_graph(g)
        s = build_skeleton_E(ssp)
        d = diameter(s)
        assert d is not None and d <= ssp.rank
        bp = birkhoff_restrict(g)
        sb = build_skeleton_E(bp)
        db = diameter(sb)
        assert db is not None and db <= bp.rank

        verts = list(ssp.vertices)
        for _ in range(4):
            a, b = rng.choice(verts), rng.choice(verts)
            walk = flip_path(ssp, a, b)
            assert walk[0] == a and walk[-1] == b
            assert len(walk) - 1 <= ssp.rank
            for u, v in zip(walk, walk[1:]):
                assert u != v and is_edge_E(ssp, u, v)
        bverts = list(bp.vertices)
        for _ in range(2):
            a, b = rng.choice(bverts), rng.choice(bverts)
            walk = flip_path(bp, a, b)
            assert walk[0] == a and walk[-1] == b
            assert len(walk) - 1 <= bp.rank
            for u, v in zip(walk, walk[1:]):
                assert u != v and is_edge_E(bp, u, v)

    cube = ZeroOnePolytope.from_graph(build_empty_graph(3))
    assert diameter(build_skeleton_E(cube)) == 3 == cube.rank
    bell3 = ZeroOnePolytope.from_graph(build_bell_graph(3))
    assert diameter(build_skeleton_E(bell3)) == 2 == bell3.rank
    budget.check()


def test_criterion_9_partition_counts_and_images():
    budget = Budget(60.0)
    from sspkit.families import arcs_to_partition, is_noncrossing, is_nonnesting
    from sspkit.graphs import enumerate_stable_sets

    for n in range(1, 8):
        bell = build_bell_graph(n)
        stabs = enumerate_stable_sets(bell)
        assert len(stabs) == bell_number(n)
        decoded = {arcs_to_partition(n, s) for s in stabs}
        assert len(decoded) == bell_number(n)

        nn = enumerate_stable_sets(build_nonnesting_graph(n))
        assert len(nn) == catalan_number(n)
        nn_image = {arcs_to_partition(n, s) for s in nn}
        assert nn_image == {q for q in decoded if is_nonnesting(q)}

        nc = enumerate_stable_sets(build_noncrossing_graph(n))
        assert len(nc) == catalan_number(n)
        nc_image = {arcs_to_partition(n, s) for s in nc}
        assert nc_image == {q for q in decoded if is_noncrossing(q)}
    budget.check()


def test_criterion_10_strict_inclusion_witnesses():
    budget = Budget(10.0)
    cube_mod = modified_cube()
    assert build_skeleton_E(cube_mod).edges == build_skeleton_oracle(cube_mod).edges

    remark = maximal_family_polytope(remark_graph())
    assert build_skeleton_E(remark).edges != build_skeleton_oracle(remark).edges
    budget.check()
