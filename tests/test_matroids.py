"""Matroid axioms, constructions, polytopes, exchange operations."""

import random
from itertools import combinations

import pytest

from sspkit.families import build_complete_graph
from sspkit.geometry import build_skeleton_oracle
from sspkit.graphs import GroundSet, SimpleGraph, enumerate_stable_sets
from sspkit.matroids import (
    MAX_INDEPENDENTS,
    AxiomViolation,
    _forests,
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
from sspkit.skeleton import ZeroOnePolytope, build_skeleton_E

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


class TestAxioms:
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
        assert len(m.independents) == 11
        assert m.rank == 2
        assert len(m.bases()) == 6

    def test_uniform_2_5(self):
        m = build_uniform(5, 2)
        assert len(m.independents) == 16  # 1 + 5 + 10

    def test_partition_2_3(self):
        m = build_partition((2, 3))
        # (1+2)(1+3) = 12 independent sets, rank 2
        assert len(m.independents) == 12
        assert m.rank == 2
        assert len(m.bases()) == 6

    def test_graphic_k4(self):
        m = build_graphic(K4_EDGES)
        assert m.rank == 3
        assert len(m.bases()) == 16  # Cayley: 4^2 spanning trees

    def test_graphic_rejects_loops(self):
        with pytest.raises(ValueError):
            build_graphic([(1, 1)])

    def test_matroid_constructor_validates(self):
        gs = GroundSet([1, 2, 3])
        with pytest.raises(ValueError):
            Matroid(gs, [0b000, 0b011])  # not downward closed


class TestBuilderSizes:
    def test_uniform_matches_mask_filter(self):
        for n in range(7):
            for k in range(n + 1):
                want = [m for m in range(1 << n) if m.bit_count() <= k]
                got = build_uniform(n, k).independents
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
            assert sorted(build_partition(sizes).independents) == want, sizes

    def test_graphic_matches_mask_filter(self):
        want = forests_by_mask_filter(K4_EDGES)
        assert sorted(build_graphic(K4_EDGES).independents) == want
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
        assert len(m.independents) == 31 and m.rank == 1

    def test_cap_is_inclusive(self):
        # the free matroid on 10 elements has exactly the cap's 1024 sets
        assert MAX_INDEPENDENTS == 1024
        assert len(build_uniform(10, 10).independents) == MAX_INDEPENDENTS

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_uniform(11, 11),
            lambda: build_uniform(30, 15),
            lambda: build_uniform(10**6, 10**6),
            lambda: build_partition([2] * 30),
            lambda: build_partition([1] * 11),
            lambda: build_graphic(K6_EDGES),
            lambda: build_graphic(list(combinations(range(300), 2))),
        ],
        ids=[
            "free-11",
            "uniform-30-15",
            "huge-k",
            "partition-30x2",
            "partition-11x1",
            "graphic-k6",
            "graphic-k300",
        ],
    )
    def test_refused_before_enumeration(self, build):
        with pytest.raises(ValueError, match="independent sets"):
            build()


class TestPolytopes:
    def test_independence_polytope_kind(self):
        p = independence_polytope(build_uniform(3, 1))
        assert p.kind == "matroid-independence"
        assert len(p.vertices) == 4

    def test_uniform_1_3_matches_triangle_stable_sets(self):
        p = independence_polytope(build_uniform(3, 1))
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
        bases = m.bases()
        for _ in range(40):
            a, b = rng.sample(bases, 2)
            xs = [i for i in range(len(m.ground)) if (a >> i) & 1 and not (b >> i) & 1]
            if not xs:
                continue
            x = rng.choice(xs)
            y = strong_exchange(m, a, b, x)
            assert (b >> y) & 1 and not (a >> y) & 1
            assert m.is_independent((a ^ (1 << x)) | (1 << y))
            assert m.is_independent((b ^ (1 << y)) | (1 << x))

    def test_strong_exchange_needs_bases(self):
        m = build_uniform(3, 1)
        with pytest.raises(ValueError):
            strong_exchange(m, 0b011, 0b001, 1)

    def test_basis_exchange_adjacent_validates(self):
        m = build_uniform(4, 2)
        with pytest.raises(ValueError):
            basis_exchange_adjacent(m, 0b0001, 0b0011)
