"""LP adjacency oracle, validity/facet checks, facet enumeration.

The double-description output is certified three independent ways: each
output passes is_valid + is_facet, the inequalities cut the 0/1 cube down
to exactly the vertex set, and small cases match Qhull's floating hull.
"""

import random
from fractions import Fraction

import pytest

from sspkit import geometry
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
    SizeLimitError,
    always_facet_inequalities,
    build_skeleton_oracle,
    classify_inequality,
    clique_inequality,
    enumerate_facets,
    is_facet,
    is_valid,
    make_inequality,
    nonnegativity,
    normalized_int_form,
    oracle_is_edge,
    polytope_dim,
)
from sspkit.graphs import SimpleGraph, enumerate_max_cliques
from sspkit.linalg import affine_dim, lp_feasible
from sspkit.matroids import basis_polytope, build_uniform
from sspkit.skeleton import ZeroOnePolytope, birkhoff_restrict, build_skeleton_E
from sspkit.verify import random_graph


def random_n5_polytopes():
    rng = random.Random(11)
    return [ZeroOnePolytope.from_graph(random_graph(rng, 5)) for _ in range(12)]


def path3_polytope():
    g = SimpleGraph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
    return g, ZeroOnePolytope.from_graph(g)


class TestOracle:
    def test_oracle_skeleton_provenance(self):
        _, p = path3_polytope()
        s = build_skeleton_oracle(p)
        assert s.provenance == "oracle"

    def test_rejects_same_vertex(self):
        _, p = path3_polytope()
        with pytest.raises(ValueError):
            oracle_is_edge(p, 2, 2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [ZeroOnePolytope.from_graph(build_bell_graph(4))],
            lambda: [birkhoff_restrict(build_rook_graph(4))],
            lambda: [basis_polytope(build_uniform(4, 2))],
            lambda: [modified_cube()],
            lambda: [maximal_family_polytope(remark_graph())],
            random_n5_polytopes,
        ],
        ids=[
            "bell4",
            "B4",
            "uniform-2-4-bases",
            "modified-cube",
            "remark-4.3",
            "random-n5-seed11",
        ],
    )
    def test_matches_unfiltered_lp(self, make):
        # The reference route: the LP over every other vertex and every
        # coordinate, with no witness and no column or row cut.
        for p in make():
            for a, va in enumerate(p.vertices):
                for b, vb in enumerate(p.vertices[a + 1 :], a + 1):
                    cols = [w for k, w in enumerate(p.vertices) if k not in (a, b)]
                    lhs = [
                        [((w >> c) & 1) - ((vb >> c) & 1) for w in cols]
                        for c in range(p.n)
                    ]
                    rhs = [((va >> c) & 1) - ((vb >> c) & 1) for c in range(p.n)]
                    assert oracle_is_edge(p, a, b) == (not lp_feasible(lhs, rhs))

    def test_witness_pairs_are_rechecked(self, monkeypatch):
        # A split walk that offers every vertex pair as a second split must
        # not change a verdict: the oracle keeps only genuine splits.
        p = ZeroOnePolytope.from_graph(build_bell_graph(4))
        want = build_skeleton_E(p).edges
        every_pair = [
            (c, d)
            for c in range(len(p.vertices))
            for d in range(c + 1, len(p.vertices))
        ]
        monkeypatch.setattr(geometry, "_split_pairs", lambda *a, **k: every_pair)
        assert build_skeleton_oracle(p).edges == want

    def test_witnesses_settle_every_non_edge_on_nc5(self, monkeypatch):
        results = []

        def counted(lhs, rhs):
            results.append(lp_feasible(lhs, rhs))
            return results[-1]

        monkeypatch.setattr(geometry, "lp_feasible", counted)
        p = ZeroOnePolytope.from_graph(build_noncrossing_graph(5))
        s = build_skeleton_oracle(p)
        assert len(results) == len(s.edges)
        assert not any(results)


class TestInequality:
    def test_evaluate_and_tight(self):
        q = make_inequality([1, 2, 0], 3)
        assert q.evaluate(0b011) == 3
        assert q.tight(0b011)
        assert q.holds(0b001)
        assert not q.holds(0b010) or q.evaluate(0b010) <= 3

    def test_nonnegativity_form(self):
        q = nonnegativity(3, 1)
        assert q.coeffs == (Fraction(0), Fraction(-1), Fraction(0))
        assert q.rhs == 0

    def test_clique_inequality_form(self):
        q = clique_inequality(3, 0b101)
        assert q.coeffs == (Fraction(1), Fraction(0), Fraction(1))
        assert q.rhs == 1

    def test_normalized_int_form_clears_denominators(self):
        q = make_inequality([Fraction(1, 2), Fraction(1, 3)], Fraction(5, 6))
        assert normalized_int_form(q) == ((3, 2), 5)

    def test_normalized_int_form_zero_row_total(self):
        assert normalized_int_form(make_inequality([0, 0], 1)) == ((0, 0), 1)
        assert normalized_int_form(make_inequality([0, 0], 0)) == ((0, 0), 0)


class TestValidityAndFacets:
    def test_nonnegativity_is_facet_on_path3(self):
        g, p = path3_polytope()
        assert is_facet(p, nonnegativity(3, 1))

    def test_valid_but_not_facet(self):
        g, p = path3_polytope()
        q = make_inequality([1, 1, 1], 2)
        assert is_valid(p, q)
        # only {1,3} is tight: affine dimension 0, needs 2
        assert not is_facet(p, q)

    def test_invalid_inequality_rejected_by_is_facet(self):
        g, p = path3_polytope()
        with pytest.raises(ValueError):
            is_facet(p, make_inequality([1, 1, 1], 1))

    def test_always_facets_all_pass(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_graph(rng, 5)
            p = ZeroOnePolytope.from_graph(g)
            qs = always_facet_inequalities(g)
            assert len(qs) == g.n + len(enumerate_max_cliques(g))
            for q in qs:
                assert is_valid(p, q)
                assert is_facet(p, q)

    def test_is_facet_matches_two_rank_definition(self):
        """On random graphs, is_facet's one pass agrees with comparing two
        affine dimensions, for facets and for valid non-facets alike."""
        rng = random.Random(4)
        facets = non_facets = 0
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 7))
            p = ZeroOnePolytope.from_graph(g)
            rows = [p.vertex_vector(i) for i in range(len(p.vertices))]
            # (inequality, known verdict or None)
            candidates = [(q, True) for q in always_facet_inequalities(g)]
            # 0 <= 0 cuts out the whole polytope: valid, not a facet
            candidates.append((make_inequality([0] * g.n, 0), False))
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
                candidates.append((make_inequality(w, best), None))
            dim = affine_dim(rows)
            for q, known in candidates:
                tight = [r for r, v in zip(rows, p.vertices) if q.tight(v)]
                want = affine_dim(tight) == dim - 1
                assert known is None or want == known, (g, q)
                assert is_facet(p, q) == want, (g, q)
                facets += want
                non_facets += not want
        assert facets > 100 and non_facets > 50

    def test_polytope_dim_full_for_stable_set(self):
        g, p = path3_polytope()
        assert polytope_dim(p) == 3


class TestEnumerateFacets:
    def test_simplex(self):
        p = ZeroOnePolytope.from_graph(build_complete_graph(3))
        facets = enumerate_facets(p)
        assert len(facets) == 4
        forms = {normalized_int_form(q) for q in facets}
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
        forms = {normalized_int_form(q) for q in facets}
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
                if all(q.holds(m) for q in facets)
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
        p = ZeroOnePolytope.raw(g.ground, [0b00, 0b11])
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
        return make_inequality(coeffs, 2)

    def test_valid_facet(self):
        q = self.extra_inequality()
        assert is_valid(self.p, q)
        assert is_facet(self.p, q)
        assert classify_inequality(q, self.g) == "other"

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
        q = make_inequality(coeffs, 2)
        witness = gs.mask_of([(1, 3), (4, 5), (5, 6)])
        assert witness in self.p.index
        assert q.evaluate(witness) == 3
        assert not is_valid(self.p, q)


class TestClassify:
    def test_nonnegativity(self):
        g, p = path3_polytope()
        assert classify_inequality(nonnegativity(3, 0), g) == "nonnegativity"

    def test_clique(self):
        g, p = path3_polytope()
        assert classify_inequality(clique_inequality(3, 0b011), g) == "clique"

    def test_other(self):
        g, p = path3_polytope()
        q = make_inequality([1, 1, 1], 2)
        assert classify_inequality(q, g) == "other"
