"""LP adjacency oracle, validity/facet checks, facet enumeration.

The double-description output is certified three independent ways: each
output passes is_facet (which refuses an inequality some vertex violates),
the inequalities cut the 0/1 cube down to exactly the vertex set, and small
cases match Qhull's floating hull.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sspkit import geometry, skeleton
from sspkit.counterexample import (
    maximal_family_polytope,
    modified_cube,
    remark_graph,
)
from sspkit.families import (
    build_bell_graph,
    build_complete_graph,
    build_empty_graph,
    build_noncrossing_graph,
    build_nonnesting_graph,
    build_rook_graph,
)
from sspkit.geometry import (
    Inequality,
    SizeLimitError,
    always_facet_inequalities,
    build_skeleton_oracle,
    classify_inequality,
    clique_inequality,
    enumerate_facets,
    is_facet,
    nonnegativity,
    oracle_is_edge,
)
from sspkit.graphs import SimpleGraph, enumerate_max_cliques
from sspkit.linalg import (
    cone_rays,
    independent_mod2,
    independent_rows,
    lp_feasible,
    primitive,
)
from sspkit.graphs import GroundSet
from sspkit.matroids import basis_polytope, build_uniform
from sspkit.skeleton import (
    ZeroOnePolytope,
    birkhoff_restrict,
    build_skeleton_E,
    diameter,
)
from sspkit.verify import random_graph, random_graph_corpus
from strategies import graph_polytopes, raw_polytopes


def random_n5_polytopes():
    rng = random.Random(11)
    return [ZeroOnePolytope.from_graph(random_graph(rng, 5)) for _ in range(12)]


def random_raw_polytopes():
    # Raw families, where the oracle is the only adjacency answer.
    rng = random.Random(13)
    ground = GroundSet(range(6))
    return [
        ZeroOnePolytope(ground, rng.sample(range(1 << 6), rng.randrange(2, 25)), "raw")
        for _ in range(12)
    ]


POLYTOPE_SETS = pytest.mark.parametrize(
    "make",
    [
        lambda: [ZeroOnePolytope.from_graph(build_bell_graph(4))],
        lambda: [birkhoff_restrict(build_rook_graph(4))],
        lambda: [basis_polytope(build_uniform(4, 2))],
        lambda: [modified_cube()],
        lambda: [maximal_family_polytope(remark_graph())],
        random_n5_polytopes,
        random_raw_polytopes,
    ],
    ids=[
        "bell4",
        "B4",
        "uniform-2-4-bases",
        "modified-cube",
        "remark-4.3",
        "random-n5-seed11",
        "random-raw-seed13",
    ],
)


def path3_polytope():
    g = SimpleGraph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
    return g, ZeroOnePolytope.from_graph(g)


def holds_on(p, q):
    """Every vertex of p satisfies q."""
    return all(q.evaluate(v) <= q.rhs for v in p.vertices)


class TestOracle:
    def test_oracle_skeleton_provenance(self):
        _, p = path3_polytope()
        s = build_skeleton_oracle(p)
        assert s.provenance == "oracle"

    def test_rejects_same_vertex(self):
        _, p = path3_polytope()
        v = p.vertices[2]
        with pytest.raises(ValueError, match="distinct"):
            oracle_is_edge(p, v, v)

    @pytest.mark.parametrize("mask", [0b011, 0b1000], ids=["not-stable", "off-ground"])
    def test_rejects_non_vertex(self, mask):
        # {1, 2} is an edge of the path; bit 3 lies outside its ground set
        _, p = path3_polytope()
        assert mask not in p.index
        for a, b in ((p.vertices[0], mask), (mask, p.vertices[0])):
            with pytest.raises(ValueError, match="must be vertices"):
                oracle_is_edge(p, a, b)

    @POLYTOPE_SETS
    def test_matches_unfiltered_lp(self, make):
        # The reference route: the LP over every other vertex and every
        # coordinate, with no witness, no functional and no column or row cut.
        for p in make():
            want = []
            for a, va in enumerate(p.vertices):
                row = []
                for b, vb in enumerate(p.vertices[a + 1 :], a + 1):
                    cols = [w for k, w in enumerate(p.vertices) if k not in (a, b)]
                    lhs = [
                        [((w >> c) & 1) - ((vb >> c) & 1) for w in cols]
                        for c in range(p.n)
                    ]
                    rhs = [((va >> c) & 1) - ((vb >> c) & 1) for c in range(p.n)]
                    edge = not lp_feasible(lhs, rhs)
                    assert oracle_is_edge(p, va, vb) == edge
                    if edge:
                        row.append(b)
                want.append(tuple(row))
            assert build_skeleton_oracle(p).rows == tuple(want)

    @POLYTOPE_SETS
    def test_edges_without_lp_carry_a_functional(self, monkeypatch, make):
        # An edge settled with no LP must be the unique maximum face of the
        # lifted balanced functional: |Q| on A - B, |P| on B - A, M on A & B
        # and -M outside A | B, with M = |P||Q| + 1. Checked over every
        # vertex in integers, by code of this test's own.
        lps = []
        monkeypatch.setattr(geometry, "lp_feasible", lambda *args: lps.append(1))
        for p in make():
            for a, va in enumerate(p.vertices):
                for vb in p.vertices[a + 1 :]:
                    before = len(lps)
                    if not oracle_is_edge(p, va, vb) or len(lps) > before:
                        continue
                    size_p = len([k for k in range(p.n) if va >> k & 1 and not vb >> k & 1])
                    size_q = len([k for k in range(p.n) if vb >> k & 1 and not va >> k & 1])
                    m = size_p * size_q + 1
                    c = []
                    for k in range(p.n):
                        x, y = va >> k & 1, vb >> k & 1
                        c.append(m if x and y else -m if not (x or y) else size_q if x else size_p)
                    value = [sum(c[k] for k in range(p.n) if w >> k & 1) for w in p.vertices]
                    top = value[p.index[va]]
                    assert value[p.index[vb]] == top
                    assert sum(v == top for v in value) == 2
                    assert max(value) == top

    def test_independent_of_the_split_search(self, monkeypatch):
        # The oracle finds its witnesses itself: with the E-test's split
        # search broken, its verdicts do not change.
        p = ZeroOnePolytope.from_graph(build_bell_graph(4))
        want = build_skeleton_E(p).edges

        def broken(*args):
            raise AssertionError("the oracle asked the E-test's split search")

        monkeypatch.setattr(skeleton, "_other_split", broken)
        assert build_skeleton_oracle(p).edges == want

    def test_witnesses_settle_every_non_edge_on_nc5(self, monkeypatch):
        results = []

        def counted(lhs, rhs):
            results.append(lp_feasible(lhs, rhs))
            return results[-1]

        monkeypatch.setattr(geometry, "lp_feasible", counted)
        p = ZeroOnePolytope.from_graph(build_noncrossing_graph(5))
        s = build_skeleton_oracle(p)
        assert len(results) == 49
        assert not any(results)

    def test_masks_belong_to_the_polytope(self):
        # Mask k holds the indices of the vertices that contain element k.
        # The first query builds them; later queries, the oracle skeleton
        # and the condition-E kernel read the same tuple.
        p = ZeroOnePolytope.from_graph(build_bell_graph(4))
        assert p._masks is None
        verts = p.vertices
        oracle_is_edge(p, verts[0], verts[1])
        masks = p._masks
        assert masks == tuple(
            sum(1 << i for i, v in enumerate(verts) if v >> k & 1) for k in range(p.n)
        )
        for a, va in enumerate(verts):
            for vb in verts[a + 1 :]:
                oracle_is_edge(p, va, vb)
        assert build_skeleton_oracle(p).rows == build_skeleton_E(p).rows
        assert p._masks is masks
        assert not hasattr(geometry, "_holders")


class TestOraclePastTheCap:
    """Point queries on polytopes above ORACLE_VERTEX_CAP, where the oracle
    skeleton is refused: nc9 (4,862 vertices) and bell8 (4,140). Seeded
    samples of 200 condition-E edges, 200 condition-E non-edges and 200
    uniform pairs each get the condition-E verdict from the oracle. Building
    the polytope and build_skeleton_E took 0.6 s (nc9) and 0.35 s (bell8),
    and the 600 queries 0.04 s each, on a 2-core box (CPython 3.11); the
    budgets sit near five times the whole. The masks are built once, by
    build_skeleton_E, and every query reads them."""

    @pytest.mark.parametrize(
        "build, budget",
        [(lambda: build_noncrossing_graph(9), 3.5), (lambda: build_bell_graph(8), 2.0)],
        ids=["nc9", "bell8"],
    )
    def test_sample_agrees_with_condition_E(self, build, budget):
        start = time.monotonic()
        p = ZeroOnePolytope.from_graph(build())
        assert len(p.vertices) > geometry.ORACLE_VERTEX_CAP
        rows = build_skeleton_E(p).rows
        masks = p._masks
        rng = random.Random(7919)
        nv = len(p.vertices)
        edges, non_edges, uniform = [], [], []
        while len(edges) < 200:
            a = rng.randrange(nv)
            if rows[a]:
                edges.append((a, rng.choice(rows[a])))
        while len(non_edges) < 200:
            a, b = sorted(rng.sample(range(nv), 2))
            if b not in rows[a]:
                non_edges.append((a, b))
        while len(uniform) < 200:
            uniform.append(tuple(sorted(rng.sample(range(nv), 2))))
        verts = p.vertices
        disagree = [
            (a, b) for a, b in edges + non_edges + uniform
            if oracle_is_edge(p, verts[a], verts[b]) != (b in rows[a])
        ]
        elapsed = time.monotonic() - start
        assert disagree == []
        assert masks is not None and p._masks is masks
        assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s"


class TestInequality:
    def test_evaluate_sums_the_members(self):
        rng = random.Random(5)
        for _ in range(200):
            coeffs = [rng.randrange(-3, 4) for _ in range(9)]
            mask = rng.randrange(1 << 9)
            want = sum(c for k, c in enumerate(coeffs) if mask >> k & 1)
            assert Inequality(tuple(coeffs), 0).evaluate(mask) == want

    def test_evaluate_and_tight(self):
        q = Inequality((1, 2, 0), 3)
        assert q.evaluate(0b011) == 3
        assert q.evaluate(0b011) == q.rhs  # tight
        assert q.evaluate(0b001) <= q.rhs
        assert q.evaluate(0b010) <= q.rhs

    def test_nonnegativity_form(self):
        q = nonnegativity(3, 1)
        assert q.coeffs == (0, -1, 0)
        assert q.rhs == 0

    def test_clique_inequality_form(self):
        q = clique_inequality(3, 0b101)
        assert q.coeffs == (1, 0, 1)
        assert q.rhs == 1

    def test_classify_reads_the_primitive_row(self):
        # 2x_1 + 2x_2 <= 2 is a clique row once the gcd is divided out. A
        # rational coefficient is refused, not cleared.
        assert classify_inequality(Inequality((2, 2, 0), 2)) == "clique"
        q = Inequality((Fraction(1, 2), Fraction(1, 3)), Fraction(5, 6))
        with pytest.raises(TypeError):
            classify_inequality(q)


class TestValidityAndFacets:
    def test_nonnegativity_is_facet_on_path3(self):
        g, p = path3_polytope()
        assert is_facet(p, nonnegativity(3, 1))

    def test_valid_but_not_facet(self):
        g, p = path3_polytope()
        q = Inequality((1, 1, 1), 2)
        assert holds_on(p, q)
        # only {1,3} is tight: affine dimension 0, needs 2
        assert not is_facet(p, q)

    def test_invalid_inequality_rejected_by_is_facet(self):
        g, p = path3_polytope()
        with pytest.raises(ValueError):
            is_facet(p, Inequality((1, 1, 1), 1))

    @pytest.mark.parametrize(
        "build, q",
        [
            # valid on the 3-cube, though 0.1 + 0.1 + 0.1 > 0.3 in floats
            (build_empty_graph, Inequality((0.1, 0.1, 0.1), 0.3)),
            # the simplex's facet x1 + x2 + x3 <= 1, scaled by a half
            (build_complete_graph, Inequality((Fraction(1, 2),) * 3, Fraction(1, 2))),
            (build_complete_graph, Inequality((0.5, 0.5, 0.5), 0.5)),
            (build_complete_graph, Inequality((0, 0, -1), 0.0)),
        ],
        ids=["float-cube", "fraction-simplex", "float-simplex", "float-rhs"],
    )
    def test_entries_that_are_not_ints_raise_type_error(self, build, q):
        # refused before any vertex is evaluated, whatever route the rank
        # questions would take
        p = ZeroOnePolytope.from_graph(build(3))
        with pytest.raises(TypeError, match="must be ints"):
            is_facet(p, q)

    def test_always_facets_all_pass(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng, 5)
            p = ZeroOnePolytope.from_graph(g)
            qs = always_facet_inequalities(g)
            assert len(qs) == g.n + len(enumerate_max_cliques(g))
            for q in qs:
                assert is_facet(p, q)

    def test_is_facet_matches_two_rank_definition(self):
        """On random graphs, is_facet's one pass agrees with comparing two
        affine dimensions, for facets and for valid non-facets alike."""
        rng = random.Random(4)
        facets = non_facets = 0
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 7))
            p = ZeroOnePolytope.from_graph(g)
            rows = [(1, *(v >> k & 1 for k in range(g.n))) for v in p.vertices]
            # (inequality, known verdict or None)
            candidates = [(q, True) for q in always_facet_inequalities(g)]
            # 0 <= 0 cuts out the whole polytope: valid, not a facet
            candidates.append((Inequality((0,) * g.n, 0), False))
            for c in enumerate_max_cliques(g):
                if c.bit_count() > 2:
                    # an edge inside a larger clique: valid, not a facet
                    low = c & -c
                    rest = c ^ low
                    edge = clique_inequality(g.n, low | (rest & -rest))
                    candidates.append((edge, False))
            # the heaviest vertices under a random weight: a valid face
            for _ in range(4):
                w = [rng.randrange(-1, 3) for _ in range(g.n)]
                best = max(sum(w[b] for b in range(g.n) if v >> b & 1)
                           for v in p.vertices)
                candidates.append((Inequality(tuple(w), best), None))
            dim = len(independent_rows(rows))
            for q, known in candidates:
                tight = [r for r, v in zip(rows, p.vertices) if q.evaluate(v) == q.rhs]
                want = len(independent_rows(tight)) == dim - 1
                assert known is None or want == known, (g, q)
                assert is_facet(p, q) == want, (g, q)
                facets += want
                non_facets += not want
        assert facets > 100 and non_facets > 50

    def test_polytope_dim_full_for_stable_set(self):
        g, p = path3_polytope()
        rows = [(1, *(v >> k & 1 for k in range(p.n))) for v in p.vertices]
        assert len(independent_rows(rows)) - 1 == 3


class TestEnumerateFacets:
    def test_simplex(self):
        p = ZeroOnePolytope.from_graph(build_complete_graph(3))
        facets = enumerate_facets(p)
        assert len(facets) == 4
        forms = {(q.coeffs, q.rhs) for q in facets}
        assert ((1, 1, 1), 1) in forms
        assert ((0, -1, 0), 0) in forms

    def test_cube(self):
        p = ZeroOnePolytope.from_graph(build_empty_graph(3))
        facets = enumerate_facets(p)
        assert len(facets) == 6

    def test_bell3_euler(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        facets = enumerate_facets(p)
        edges = build_skeleton_E(p).edges
        assert len(p.vertices) - len(edges) + len(facets) == 2
        assert len(facets) == 5
        forms = {(q.coeffs, q.rhs) for q in facets}
        assert ((1, 1, 0), 1) in forms  # shared-row pair
        assert ((0, 1, 1), 1) in forms  # shared-column pair

    def test_output_is_sorted_and_deterministic(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        a = enumerate_facets(p)
        b = enumerate_facets(p)
        assert a == b
        assert a == sorted(a, key=lambda q: (q.coeffs, q.rhs))

    def test_feedback_invariant_small(self):
        rng = random.Random(7)
        for _ in range(8):
            g = random_graph(rng, 5)
            p = ZeroOnePolytope.from_graph(g)
            facets = enumerate_facets(p)
            sat = [
                m
                for m in range(1 << g.n)
                if all(q.evaluate(m) <= q.rhs for q in facets)
            ]
            assert sorted(sat) == sorted(p.vertices)

    def test_vertex_cap(self):
        p = ZeroOnePolytope.from_graph(build_empty_graph(3))
        with pytest.raises(SizeLimitError):
            enumerate_facets(p, vertex_cap=4)

    def test_dim_cap(self):
        p = ZeroOnePolytope.from_graph(build_empty_graph(3))
        with pytest.raises(SizeLimitError):
            enumerate_facets(p, dim_cap=2)

    def test_low_dimensional_input_refused(self):
        g = build_empty_graph(2)
        p = ZeroOnePolytope(g.ground, [0b00, 0b11], "raw")
        with pytest.raises(ValueError):
            enumerate_facets(p)

    def test_matches_qhull_on_small_cases(self):
        pytest.importorskip("scipy")
        import numpy as np
        from scipy.spatial import ConvexHull

        for build, n in ((build_bell_graph, 3), (build_nonnesting_graph, 4)):
            p = ZeroOnePolytope.from_graph(build(n))
            d = len(p.ground)
            pts = np.array(
                [[float(v >> i & 1) for i in range(d)] for v in p.vertices]
            )
            hull = ConvexHull(pts)
            seen = set()
            for row in hull.equations:
                a, b = row[:-1], -row[-1]
                scale = max(abs(x) for x in a)
                seen.add(
                    tuple(round(x / scale, 6) for x in a)
                    + (round(b / scale, 6),)
                )
            assert len(enumerate_facets(p)) == len(seen)


def _lifted(v, n):
    return (1, *((v >> k) & 1 for k in range(n)))


def reference_facets(p):
    """Double description as it stood before the popcount filter and the
    witness-first scan: every pair of a positive and a negative ray is
    tested by scanning every other ray's zero set, and a ray's value on a
    row is a full dot product."""
    n, nv = p.n, len(p.vertices)
    rows = [_lifted(v, n) for v in p.vertices]
    d = n + 1
    chosen = independent_rows(rows)
    assert len(chosen) == d
    if n == 0:
        return []
    picked = set(chosen)
    order = chosen + [i for i in range(nv) if i not in picked]
    rays = cone_rays([rows[i] for i in chosen])
    full = (1 << d) - 1
    tight = [full ^ (1 << j) for j in range(d)]
    for t in range(d, nv):
        row = rows[order[t]]
        vals = [_ref_dot(row, r) for r in rays]
        minus = [k for k, v in enumerate(vals) if v < 0]
        if not minus:
            for k, v in enumerate(vals):
                if v == 0:
                    tight[k] |= 1 << t
            continue
        plus = [k for k, v in enumerate(vals) if v > 0]
        keep = [k for k, v in enumerate(vals) if v >= 0]
        new_rays, new_tight = [], []
        for kp in plus:
            tp = tight[kp]
            vp = vals[kp]
            for km in minus:
                z = tp & tight[km]
                if not _ref_adjacent(z, tight, kp, km):
                    continue
                vm = vals[km]
                vec = tuple(
                    vp * rm - vm * rp for rp, rm in zip(rays[kp], rays[km])
                )
                new_rays.append(primitive(vec))
                new_tight.append(z | (1 << t))
        rays = [rays[k] for k in keep] + new_rays
        tight = [
            tight[k] | (1 << t) if vals[k] == 0 else tight[k] for k in keep
        ] + new_tight
    out = [geometry.Inequality(tuple(-c for c in r[1:]), r[0]) for r in rays]
    out.sort(key=lambda q: (q.coeffs, q.rhs))
    return out


def _ref_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _ref_adjacent(z, tight, kp, km):
    for k, ts in enumerate(tight):
        if k != kp and k != km and z & ts == z:
            return False
    return True


def nc7_subgraph(*left_out):
    """The noncrossing graph on the arcs of 7 points without left_out."""
    g = build_noncrossing_graph(7)
    labels = [lab for lab in g.ground.labels if lab not in left_out]
    keep = set(labels)
    edges = [
        (g.ground.labels[u], g.ground.labels[v])
        for u, v in g.edges()
        if g.ground.labels[u] in keep and g.ground.labels[v] in keep
    ]
    return SimpleGraph.from_edges(labels, edges)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.from_edges(range(n), [e for e, k in zip(pairs, keep) if k])


@st.composite
def down_closed_families(draw):
    """A down-closed family holding every singleton, so full-dimensional,
    listed in a drawn order."""
    n = draw(st.integers(1, 6))
    tops = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    family = {0} | {1 << k for k in range(n)}
    for top in tops:
        sub = top
        while True:  # every subset of top
            family.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    verts = draw(st.permutations(sorted(family)))
    return ZeroOnePolytope(GroundSet(range(n)), verts, "raw")


@st.composite
def full_dimensional_families(draw):
    """Any 0/1 family of full affine dimension, listed in a drawn order. It
    need not be down-closed or hold the empty set, so the lexmin start
    basis often differs from the one that index order picks."""
    n = draw(st.integers(1, 6))
    family = draw(
        st.sets(st.integers(0, (1 << n) - 1), min_size=n + 1, max_size=20)
    )
    assume(len(independent_rows([_lifted(v, n) for v in family])) == n + 1)
    verts = draw(st.permutations(sorted(family)))
    return ZeroOnePolytope(GroundSet(range(n)), verts, "raw")


class TestAgainstReferenceDD:
    """The filtered double description, inserting in lexmin order, returns
    exactly the list of the unfiltered one, inserting in index order."""

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_stable_set_polytopes(self, g):
        p = ZeroOnePolytope.from_graph(g)
        assert enumerate_facets(p) == reference_facets(p)

    @settings(max_examples=60, deadline=None)
    @given(down_closed_families())
    def test_down_closed_raw_families(self, p):
        assert enumerate_facets(p) == reference_facets(p)

    @settings(max_examples=100, deadline=None)
    @given(full_dimensional_families())
    def test_arbitrary_raw_families(self, p):
        assert enumerate_facets(p) == reference_facets(p)

    @pytest.mark.parametrize(
        "left_out, facets",
        [([(1, 2), (6, 7)], 61), ([(1, 7), (2, 6)], 48)],
        ids=["nc7-a12-a67", "nc7-a17-a26"],
    )
    def test_nc7_subgraphs(self, left_out, facets):
        p = ZeroOnePolytope.from_graph(nc7_subgraph(*left_out))
        got = enumerate_facets(p, vertex_cap=len(p.vertices), dim_cap=p.n)
        assert len(got) == facets
        assert got == reference_facets(p)



def reference_is_facet(p, q):
    """is_facet as it stood before the one-pass scan: validity checked on
    every vertex, then every tight row reduced, then the rest."""
    if not holds_on(p, q):
        raise ValueError("is_facet requires a valid inequality")
    tight = [_lifted(v, p.n) for v in p.vertices if q.evaluate(v) == q.rhs]
    rest = [_lifted(v, p.n) for v in p.vertices if q.evaluate(v) < q.rhs]
    chosen = independent_rows(tight + rest)
    return sum(i >= len(tight) for i in chosen) == 1


@st.composite
def polytopes_with_inequalities(draw):
    """A stable-set, birkhoff or raw polytope (one vertex included), and
    inequalities to test on it: known facets, faces cut out by drawn
    weights, the same weights shifted off every vertex, zero coefficients,
    and one invalid inequality when a vertex has a positive coordinate."""
    kind = draw(st.sampled_from(["stable-set", "birkhoff", "raw"]))
    if kind == "raw":
        n = draw(st.integers(1, 6))
        family = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
        p = ZeroOnePolytope(GroundSet(range(n)), draw(st.permutations(sorted(family))), "raw")
    else:
        g = draw(small_graphs())
        p = ZeroOnePolytope.from_graph(g) if kind == "stable-set" else birkhoff_restrict(g)
    n = p.n
    qs = [Inequality((0,) * n, 0), Inequality((0,) * n, 1)]
    if p.graph is not None:
        qs += always_facet_inequalities(p.graph)
    if len(independent_rows([_lifted(v, n) for v in p.vertices])) == n + 1:
        qs += enumerate_facets(p)
    for c in draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=4)):
        best = max(Inequality(tuple(c), 0).evaluate(v) for v in p.vertices)
        qs += [Inequality(tuple(c), best), Inequality(tuple(c), best + 1)]
    valid = [q for q in qs if holds_on(p, q)]
    top = max(p.vertices, key=int.bit_count)
    invalid = [clique_inequality(n, top)] if top.bit_count() > 1 else []
    return p, valid, invalid


class TestAgainstReferenceIsFacet:
    """is_facet's one pass gives the verdicts of the reference scan, and
    refuses the inequalities it refuses."""

    @settings(max_examples=150, deadline=None)
    @given(polytopes_with_inequalities())
    def test_same_verdicts(self, drawn):
        p, valid, invalid = drawn
        for q in valid:
            assert is_facet(p, q) == reference_is_facet(p, q), (p.vertices, q)
        for q in invalid:
            with pytest.raises(ValueError):
                reference_is_facet(p, q)
            with pytest.raises(ValueError, match="valid inequality"):
                is_facet(p, q)

    def test_one_vertex_and_zero_coefficients(self):
        """A one-vertex polytope's only face below it is the empty one, so
        0 <= 1 is a facet there and nowhere else; 0 <= 0 never is."""
        one = ZeroOnePolytope(GroundSet(range(3)), [0b101], "raw")
        two = ZeroOnePolytope(GroundSet(range(3)), [0b101, 0b001], "raw")
        for p, want in [(one, True), (two, False)]:
            assert is_facet(p, Inequality((0, 0, 0), 1)) is want
            assert reference_is_facet(p, Inequality((0, 0, 0), 1)) is want
            assert not is_facet(p, Inequality((0, 0, 0), 0))
        assert is_facet(two, Inequality((0, 0, -1), 0))  # an end of a segment


def fallback_polytope():
    """The n = 4 raw polytope whose facet x4 <= 1 has tight vertices {1,4},
    {2,4}, {3,4} and {1,2,3,4}: their lifted rows sum to 0 mod 2 but are
    independent over Q, so is_facet must settle it by exact elimination."""
    ground = GroundSet([1, 2, 3, 4])
    sets = [[], [2], [3], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4], [1, 2, 3, 4]]
    return ZeroOnePolytope(ground, [ground.mask_of(s) for s in sets], "raw")


class TestMod2Route:
    """is_facet and the double description start basis settle rank mod 2
    first: rows independent mod 2 are independent over Q. Exact
    elimination remains the fallback."""

    @staticmethod
    def count_exact_scans(monkeypatch):
        """Patch geometry.independent_rows to log each call in the list
        returned."""
        calls = []

        def counted(matrix):
            calls.append(1)
            return independent_rows(matrix)

        monkeypatch.setattr(geometry, "independent_rows", counted)
        return calls

    def test_tight_rows_dependent_mod_2_take_the_exact_scan(self, monkeypatch):
        p = fallback_polytope()
        q = Inequality((0, 0, 0, 1), 1)
        tight = [v for v in p.vertices if q.evaluate(v) == q.rhs]
        assert len(tight) == 4
        assert len(independent_mod2([v << 1 | 1 for v in tight], 4)) == 3
        assert len(independent_rows([_lifted(v, 4) for v in tight])) == 4
        calls = self.count_exact_scans(monkeypatch)
        assert is_facet(p, q) is True
        assert calls
        assert reference_is_facet(p, q) is True
        off = Inequality((0, 0, 0, 1), 2)
        assert holds_on(p, off)
        assert not is_facet(p, off) and not reference_is_facet(p, off)

    def test_start_basis_dependent_mod_2_takes_the_exact_scan(self, monkeypatch):
        # the tetrahedron on {}, {1,2}, {1,3}, {2,3}: its last three lifted
        # rows sum to the first mod 2
        ground = GroundSet([1, 2, 3])
        p = ZeroOnePolytope(
            ground, [ground.mask_of(s) for s in [[], [1, 2], [1, 3], [2, 3]]], "raw"
        )
        calls = self.count_exact_scans(monkeypatch)
        facets = enumerate_facets(p)
        assert calls
        assert len(facets) == 4 and facets == reference_facets(p)
        assert all(is_facet(p, q) for q in facets)

    def test_nc7_and_the_facets_always_corpus_need_no_exact_scan(self, monkeypatch):
        def broken(matrix):
            raise AssertionError("exact elimination was called")

        monkeypatch.setattr(geometry, "independent_rows", broken)
        p = ZeroOnePolytope.from_graph(build_noncrossing_graph(7))
        facets = enumerate_facets(p, vertex_cap=len(p.vertices), dim_cap=p.n)
        assert len(facets) == 65
        assert all(is_facet(p, q) for q in facets)
        calls = 0
        for g in random_graph_corpus(7, 100, 6):
            ssp = ZeroOnePolytope.from_graph(g)
            for q in always_facet_inequalities(g):
                assert is_facet(ssp, q), (g, q)
                calls += 1
        assert calls > 600


def test_nc7_facets_with_caps_lifted():
    """All 65 facets of the 429-vertex noncrossing polytope of 7 points:
    21 nonnegativity, 32 clique and 12 others, each certified valid and a
    facet. Enumeration in lexmin order plus certification took 0.4-0.6 s
    on a 2-core box (CPython 3.11), of which the enumeration is 0.08 s;
    the budget is about five times the whole."""
    start = time.monotonic()
    g = build_noncrossing_graph(7)
    p = ZeroOnePolytope.from_graph(g)
    facets = enumerate_facets(p, vertex_cap=len(p.vertices), dim_cap=p.n)
    counts = {"nonnegativity": 0, "clique": 0, "other": 0}
    for q in facets:
        counts[classify_inequality(q)] += 1
        assert is_facet(p, q)
    elapsed = time.monotonic() - start
    assert len(facets) == 65
    assert counts == {"nonnegativity": 21, "clique": 32, "other": 12}
    assert elapsed < 2.5, f"budget exceeded: {elapsed:.1f}s"


def test_nc8_facet_list(monkeypatch):
    """The 221 facets of the 1430-vertex noncrossing polytope of 8 points,
    at the default caps: 28 nonnegativity, 64 clique and 129 others, each
    valid on every vertex and certified a facet. The others have coefficients in {0, 1, 2} and
    right-hand sides 2 to 4. Building and enumeration took 1.5-1.6 s and
    the validity check 0.14-0.17 s on a 2-core box (CPython 3.11); the
    budget sits near ten times the whole. That no facet is missing rests
    on the enumeration alone."""
    start = time.monotonic()
    g = build_noncrossing_graph(8)
    p = ZeroOnePolytope.from_graph(g)
    facets = enumerate_facets(p)
    assert all(holds_on(p, q) for q in facets)
    elapsed = time.monotonic() - start
    by_kind = {"nonnegativity": [], "clique": [], "other": []}
    for q in facets:
        by_kind[classify_inequality(q)].append((q.coeffs, q.rhs))
    assert (len(p.vertices), p.n, len(facets)) == (1430, 28, 221)
    assert {k: len(v) for k, v in by_kind.items()} == {
        "nonnegativity": 28, "clique": 64, "other": 129,
    }
    assert {c for coeffs, _ in by_kind["other"] for c in coeffs} == {0, 1, 2}
    assert {rhs for _, rhs in by_kind["other"]} == {2, 3, 4}
    assert elapsed < 16.0, f"budget exceeded: {elapsed:.1f}s"
    # Each is a facet, certified by 28 tight rows independent mod 2 with no
    # exact scan. The reference scan took 3.0-3.7 s for all 221, the exact
    # one-pass is_facet 0.6-0.9 s and the mod-2 route 0.12-0.16 s; the
    # reference checks the first five, and each shifted off every vertex,
    # which is valid and no facet.
    with monkeypatch.context() as m:
        m.setattr(geometry, "independent_rows", None)
        assert all(is_facet(p, q) for q in facets)
    for q in facets[:5]:
        off = Inequality(q.coeffs, q.rhs + 1)
        assert reference_is_facet(p, q) and not reference_is_facet(p, off)
        assert not is_facet(p, off)


class TestFacetData:
    """Facet counts as data for the Hirsch quantity f - d, next to the
    skeleton diameter and the rank bound, at the default caps. Each row
    checks diameter <= rank <= f - d. The budgets sit near five times the
    2-core time of building the polytope, enumerating its facets, and
    building and measuring its skeleton."""

    @pytest.mark.parametrize(
        "build, vertices, n, facets, classes, hirsch, diam, rank, budget",
        [
            (lambda: build_noncrossing_graph(7), 429, 21, 65, (21, 32, 12),
             44, 4, 6, 1.5),
            (lambda: build_nonnesting_graph(7), 429, 21, 53, (21, 32, 0),
             32, 2, 6, 1.5),
            (lambda: build_bell_graph(6), 203, 15, 23, (15, 8, 0),
             8, 5, 5, 0.5),
            (lambda: build_bell_graph(7), 877, 21, 31, (21, 10, 0),
             10, 6, 6, 1.5),
            (lambda: build_nonnesting_graph(8), 1430, 28, 92, (28, 64, 0),
             64, 2, 7, 8.0),
            (lambda: build_noncrossing_graph(8), 1430, 28, 221, (28, 64, 129),
             193, 4, 7, 18.0),
        ],
        ids=["nc7", "nn7", "bell6", "bell7", "nn8", "nc8"],
    )
    def test_row(self, build, vertices, n, facets, classes, hirsch, diam,
                 rank, budget):
        start = time.monotonic()
        g = build()
        p = ZeroOnePolytope.from_graph(g)
        got = enumerate_facets(p)
        d = diameter(build_skeleton_E(p))
        elapsed = time.monotonic() - start
        counts = {"nonnegativity": 0, "clique": 0, "other": 0}
        for q in got:
            counts[classify_inequality(q)] += 1
        assert (len(p.vertices), p.n, len(got)) == (vertices, n, facets)
        assert tuple(counts.values()) == classes
        assert (len(got) - p.n, d, p.rank) == (hirsch, diam, rank)
        assert d <= p.rank <= len(got) - p.n
        assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s"


class TestNoncrossing6Facet:
    """The one facet of the 132-vertex noncrossing polytope beyond the
    nonnegativity and clique families: at most two arcs spanning distance
    two or more."""

    def setup_method(self):
        self.g = build_noncrossing_graph(6)
        self.p = ZeroOnePolytope.from_graph(self.g)

    def extra_inequality(self):
        gs = self.p.ground
        coeffs = [1 if j - i >= 2 else 0 for (i, j) in gs.labels]
        return Inequality(tuple(coeffs), 2)

    def test_valid_facet(self):
        q = self.extra_inequality()
        assert holds_on(self.p, q)
        assert is_facet(self.p, q)
        assert classify_inequality(q) == "other"

    def test_three_long_arcs_impossible(self):
        # the inequality says: no noncrossing partition of 6 carries three
        # arcs of span >= 2; check against the whole vertex set
        q = self.extra_inequality()
        assert max(q.evaluate(v) for v in self.p.vertices) == 2

    def test_consecutive_arc_variant_is_not_valid(self):
        # swapping in consecutive arcs (2,3),(4,5),(5,6) for (1,4),(3,5),(3,6)
        # produces a ten-term inequality that an actual vertex violates
        gs = self.p.ground
        terms = [
            (1, 3), (1, 5), (1, 6), (2, 3), (2, 4),
            (2, 5), (2, 6), (4, 5), (4, 6), (5, 6),
        ]
        coeffs = [0] * 15
        for t in terms:
            coeffs[gs.index(t)] = 1
        q = Inequality(tuple(coeffs), 2)
        witness = gs.mask_of([(1, 3), (4, 5), (5, 6)])
        assert witness in self.p.index
        assert q.evaluate(witness) == 3
        assert not holds_on(self.p, q)


def dd_facets(p):
    """enumerate_facets(p), or no rows where p is not full-dimensional."""
    try:
        return enumerate_facets(p)
    except ValueError as exc:
        assert "full-dimensional" in str(exc)
        return []


def reference_class(q, adj):
    """The rule with the graph: a 0/1 row with right-hand side 1 is a
    clique row only if its support is pairwise adjacent in adj."""
    g = math.gcd(*q.coeffs, q.rhs)
    coeffs, rhs = [c // g for c in q.coeffs], q.rhs // g
    support = [v for v, c in enumerate(coeffs) if c]
    if rhs == 0 and [coeffs[v] for v in support] == [-1]:
        return "nonnegativity"
    if rhs == 1 and support and all(coeffs[v] == 1 for v in support) and all(
        adj[u] >> v & 1 for u in support for v in support if u != v
    ):
        return "clique"
    return "other"


class TestClassify:
    """A facet's class is read off its primitive row alone. DD returns
    primitive rows, and on a stable-set polytope every valid 0/1 row with
    right-hand side 1 has a clique of the graph as its support."""

    def test_nonnegativity(self):
        assert classify_inequality(nonnegativity(3, 0)) == "nonnegativity"

    def test_clique(self):
        assert classify_inequality(clique_inequality(3, 0b011)) == "clique"

    def test_other(self):
        q = Inequality((1, 1, 1), 2)
        assert classify_inequality(q) == "other"

    @given(st.one_of(graph_polytopes(), raw_polytopes()))
    @settings(max_examples=150, deadline=None)
    def test_dd_rows_are_primitive(self, p):
        assert all(math.gcd(*q.coeffs, q.rhs) == 1 for q in dd_facets(p))

    @given(graph_polytopes())
    @settings(max_examples=150, deadline=None)
    def test_no_graph_needed_on_random_graphs(self, p):
        for q in dd_facets(p):
            assert classify_inequality(q) == reference_class(q, p.graph.adj)

    @pytest.mark.parametrize(
        "build, n",
        [
            (build_noncrossing_graph, 5), (build_noncrossing_graph, 6),
            (build_noncrossing_graph, 7), (build_nonnesting_graph, 6),
            (build_nonnesting_graph, 7), (build_bell_graph, 5), (build_bell_graph, 6),
            (build_rook_graph, 3), (build_empty_graph, 5), (build_complete_graph, 5),
        ],
        ids=["nc5", "nc6", "nc7", "nn6", "nn7", "bell5", "bell6", "rook3",
             "empty5", "complete5"],
    )
    def test_no_graph_needed_on_the_families(self, build, n):
        g = build(n)
        for q in enumerate_facets(ZeroOnePolytope.from_graph(g)):
            assert classify_inequality(q) == reference_class(q, g.adj)
