"""Matroid axioms, constructions, polytopes, exchange operations.

A matroid is held as its independence polytope, whose constructor checks
the axioms; its bases are the polytope's top-rank vertices."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspkit.families import build_complete_graph
from sspkit.graphs import GroundSet, SimpleGraph, ZeroOnePolytope, enumerate_stable_sets
from sspkit.matroids import (
    MAX_INDEPENDENTS,
    AxiomViolation,
    _forests,
    basis_exchange_adjacent,
    basis_polytope,
    build_graphic,
    build_partition,
    build_uniform,
    check_matroid_axioms,
    independence_polytope,
    strong_exchange,
)
from sspkit.oracle import build_skeleton_oracle
from sspkit.skeleton import build_skeleton_E

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K6_EDGES = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]


def forests_by_mask_filter(edges):
    """Reference: every edge mask, kept when union-find meets no cycle."""
    out = []
    for mask in range(1 << len(edges)):
        root = {}

        def find(x):
            while root.get(x, x) != x:
                x = root[x]
            return x

        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                ru, rv = find(u), find(v)
                if ru == rv:
                    break
                root[ru] = rv
        else:
            out.append(mask)
    return out


def down_closure(generators):
    """Every subset of every generator mask."""
    fam = set()
    for g in generators:
        s = g
        while True:
            fam.add(s)
            if not s:
                break
            s = (s - 1) & g
    return fam


def axioms_all_pairs(n, family):
    """Reference: (I1) and (I2) as check_matroid_axioms checks them, then
    (I3) over every pair of members of different cardinality."""
    fam = sorted(set(family), key=lambda m: (m.bit_count(), m))
    famset = set(fam)
    if 0 not in famset:
        return AxiomViolation("I1", ())
    for m in fam:
        for x in range(n):
            if m >> x & 1 and m ^ (1 << x) not in famset:
                return AxiomViolation("I2", (m, m ^ (1 << x)))
    for a in fam:
        for b in fam:
            if b.bit_count() > a.bit_count() and not any(
                (b & ~a) >> y & 1 and a | (1 << y) in famset for y in range(n)
            ):
                return AxiomViolation("I3", (a, b))
    return None


def families(n):
    """Families on n elements: empty, any sets (mostly without the empty
    set, so I1 fails), any sets with the empty set (mostly not down-closed,
    so I2 fails), down-closures (matroids or not), and the uniform and
    graphic matroids (the first n edges of a shuffled K4)."""
    full = (1 << n) - 1
    any_sets = st.lists(st.integers(0, full), max_size=12)
    return st.one_of(
        st.just([]),
        any_sets,
        any_sets.map(lambda fam: [0, *fam]),
        st.lists(st.integers(0, full), max_size=6).map(down_closure),
        st.integers(0, n).map(
            lambda k: [m for m in range(full + 1) if m.bit_count() <= k]
        ),
        st.permutations(K4_EDGES).map(lambda edges: _forests(edges[:n])),
    )


sized_families = st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), families(n)))


class TestAxioms:
    @given(sized_families)
    @settings(max_examples=1000, deadline=None)
    def test_matches_all_pairs_exchange(self, case):
        # (I3) is checked only between consecutive levels, by one AND with
        # each lower set's augmenting mask; verdict and witness are those
        # of the all-pairs reference on every kind of family
        n, fam = case
        assert check_matroid_axioms(GroundSet(range(n)), fam) == axioms_all_pairs(n, fam)

    def test_stable_sets_of_path_fail_exchange(self):
        g = SimpleGraph.from_edges([1, 2, 3], [(1, 2), (2, 3)])
        fam = enumerate_stable_sets(g)
        v = check_matroid_axioms(g.ground, fam)
        assert isinstance(v, AxiomViolation)
        assert v.axiom == "I3"
        # the classic witness: {2} cannot be extended from {1,3}
        a, b = v.witness
        assert bin(a).count("1") < bin(b).count("1")

    def test_empty_family_fails_i1(self):
        v = check_matroid_axioms(GroundSet([1, 2]), [])
        assert v is not None and v.axiom == "I1"

    def test_not_downward_closed_fails_i2(self):
        v = check_matroid_axioms(GroundSet([1, 2]), [0b00, 0b11])
        assert v is not None and v.axiom == "I2"
        assert v.witness[0] == 0b11

    def test_uniform_passes(self):
        gs = GroundSet([1, 2, 3, 4])
        fam = [m for m in range(16) if bin(m).count("1") <= 2]
        assert check_matroid_axioms(gs, fam) is None


class TestConstructions:
    def test_uniform_2_4(self):
        m = build_uniform(4, 2)
        assert len(m.vertices) == 11
        assert m.rank == 2
        assert len(basis_polytope(m).vertices) == 6

    def test_uniform_2_5(self):
        m = build_uniform(5, 2)
        assert len(m.vertices) == 16  # 1 + 5 + 10

    def test_partition_2_3(self):
        m = build_partition((2, 3))
        # (1+2)(1+3) = 12 independent sets, rank 2
        assert len(m.vertices) == 12
        assert m.rank == 2
        assert len(basis_polytope(m).vertices) == 6

    def test_graphic_k4(self):
        m = build_graphic(K4_EDGES)
        assert m.rank == 3
        assert len(basis_polytope(m).vertices) == 16  # Cayley: 4^2 spanning trees

    def test_graphic_rejects_loops(self):
        with pytest.raises(ValueError):
            build_graphic([(1, 1)])

    def test_matroid_constructor_validates(self):
        gs = GroundSet([1, 2, 3])
        with pytest.raises(ValueError):
            independence_polytope(gs, [0b000, 0b011])  # not downward closed

    def test_repeats_dropped_and_sets_sorted(self):
        gs = GroundSet([1, 2, 3])
        p = independence_polytope(gs, [0b011, 0b000, 0b010, 0b001, 0b001])
        assert p.vertices == (0b000, 0b001, 0b010, 0b011)
        assert p.kind == "matroid-independence"


class TestBuilderSizes:
    def test_uniform_matches_mask_filter(self):
        for n in range(7):
            for k in range(n + 1):
                want = [m for m in range(1 << n) if m.bit_count() <= k]
                got = build_uniform(n, k).vertices
                assert sorted(got) == want, (n, k)

    def test_partition_matches_mask_filter(self):
        for sizes in [(), (1,), (3,), (2, 3), (1, 2, 1), (2, 2, 2)]:
            blocks, at = [], 0
            for s in sizes:
                blocks.append(((1 << s) - 1) << at)
                at += s
            want = [
                m for m in range(1 << at)
                if all((m & b).bit_count() <= 1 for b in blocks)
            ]
            assert sorted(build_partition(sizes).vertices) == want, sizes

    def test_graphic_matches_mask_filter(self):
        want = forests_by_mask_filter(K4_EDGES)
        assert sorted(build_graphic(K4_EDGES).vertices) == want
        # every graph on five vertices with at most 8 edges, then random
        # graphs on up to nine vertices with edges in shuffled order
        k5 = list(combinations(range(1, 6), 2))
        graphs = [list(c) for m in range(9) for c in combinations(k5, m)]
        rng = random.Random(5)
        for _ in range(200):
            pairs = list(combinations(range(1, 10), 2))
            graphs.append(rng.sample(pairs, rng.randrange(9)))
        for edges in graphs:
            assert sorted(_forests(edges)) == forests_by_mask_filter(edges), edges

    def test_large_ground_set_small_family(self):
        m = build_uniform(30, 1)
        assert len(m.vertices) == 31 and m.rank == 1

    def test_cap_is_inclusive(self):
        # the free matroid on 10 elements has exactly the cap's 1024 sets
        assert MAX_INDEPENDENTS == 1024
        assert len(build_uniform(10, 10).vertices) == MAX_INDEPENDENTS

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: build_uniform(11, 11), 1486),
            (lambda: build_uniform(30, 15), 4526),
            (lambda: build_uniform(10**6, 10**6), 10**6 + 1),
            (lambda: build_uniform(10**9, 2000), 10**9 + 1),
            (lambda: build_partition([2] * 30), 2187),
            (lambda: build_partition([1] * 11), 2048),
            (lambda: build_partition([1] * 10**5), 2048),
            (lambda: build_graphic(K6_EDGES), 1025),
            (lambda: build_graphic(list(combinations(range(300), 2))), 1025),
        ],
        ids=[
            "free-11",
            "uniform-30-15",
            "huge-k",
            "uniform-1e9-2000",
            "partition-30x2",
            "partition-11x1",
            "partition-1e5x1",
            "graphic-k6",
            "graphic-k300",
        ],
    )
    def test_refused_before_enumeration(self, build, count):
        # Closed forms stop at the first running count past the cap; the
        # whole count of huge-k has about 300,000 digits.
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == (
            f"matroid has at least {count} independent sets; the builders "
            "stop at 1024"
        )


class TestPolytopes:
    def test_independence_polytope_kind(self):
        p = build_uniform(3, 1)
        assert p.kind == "matroid-independence"
        assert len(p.vertices) == 4

    def test_uniform_1_3_matches_triangle_stable_sets(self):
        p = build_uniform(3, 1)
        q = ZeroOnePolytope.from_graph(build_complete_graph(3))
        assert sorted(p.vertices) == sorted(q.vertices)

    def test_basis_polytope_octahedron(self):
        p = basis_polytope(build_uniform(4, 2))
        s = build_skeleton_E(p)
        assert len(p.vertices) == 6
        assert len(s.edges) == 12
        assert s.edges == build_skeleton_oracle(p).edges

    def test_swap_adjacency_equals_skeleton(self):
        m = build_graphic([(1, 2), (1, 3), (2, 3), (3, 4)])
        p = basis_polytope(m)
        s = build_skeleton_E(p)
        edges = set(s.edges)
        k = len(p.vertices)
        for i in range(k):
            for j in range(i + 1, k):
                swap = basis_exchange_adjacent(m, p.vertices[i], p.vertices[j])
                assert swap == ((i, j) in edges)


class TestExchange:
    def test_strong_exchange_contract(self):
        rng = random.Random(606)
        m = build_graphic(K4_EDGES)
        bases = list(basis_polytope(m).vertices)
        for _ in range(40):
            a, b = rng.sample(bases, 2)
            xs = [i for i in range(len(m.ground)) if (a >> i) & 1 and not (b >> i) & 1]
            if not xs:
                continue
            x = rng.choice(xs)
            y = strong_exchange(m, a, b, x)
            assert (b >> y) & 1 and not (a >> y) & 1
            assert (a ^ (1 << x)) | (1 << y) in m.vertices
            assert (b ^ (1 << y)) | (1 << x) in m.vertices

    def test_strong_exchange_needs_bases(self):
        m = build_uniform(3, 1)
        with pytest.raises(ValueError):
            strong_exchange(m, 0b011, 0b001, 1)

    def test_needs_an_independence_polytope(self):
        pb = basis_polytope(build_uniform(4, 2))
        for call in (
            lambda: basis_polytope(pb),
            lambda: strong_exchange(pb, 0b0011, 0b1100, 0),
            lambda: basis_exchange_adjacent(pb, 0b0011, 0b1100),
        ):
            with pytest.raises(ValueError, match="matroid independence polytope"):
                call()

    def test_basis_exchange_adjacent_validates(self):
        m = build_uniform(4, 2)
        with pytest.raises(ValueError):
            basis_exchange_adjacent(m, 0b0001, 0b0011)
