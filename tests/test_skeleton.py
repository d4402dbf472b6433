"""Unique-sum edge test, skeleton construction, and constructive paths.

Ground truth throughout is the exact LP adjacency oracle; frozen edge
lists for the 3-pair clash graph were additionally worked out by hand.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspkit.families import build_bell_graph, build_empty_graph
from sspkit.geometry import build_skeleton_oracle, oracle_is_edge
from sspkit.skeleton import (
    ZeroOnePolytope,
    base_change,
    birkhoff_restrict,
    bp_path,
    build_skeleton_E,
    decompositions,
    diameter,
    is_edge_E,
    quasimatroid_exchange,
    ssp_path,
)
from sspkit.verify import random_graph


def bell3_polytope():
    return ZeroOnePolytope.from_graph(build_bell_graph(3))


class TestPolytopeValidation:
    def test_from_graph_is_stable_set_kind(self):
        p = bell3_polytope()
        assert p.kind == "stable-set"
        assert len(p.vertices) == 5
        assert p.rank == 2

    def test_stable_set_kind_rejects_wrong_family(self):
        g = build_bell_graph(3)
        with pytest.raises(ValueError):
            ZeroOnePolytope("stable-set", g.ground, [0, 1], graph=g)

    def test_raw_accepts_anything_distinct(self):
        g = build_empty_graph(2)
        p = ZeroOnePolytope.raw(g.ground, [0b11, 0b01])
        assert p.kind == "raw"

    def test_duplicate_vertices_rejected(self):
        g = build_empty_graph(2)
        with pytest.raises(ValueError):
            ZeroOnePolytope.raw(g.ground, [1, 1])

    def test_birkhoff_restrict(self):
        p = birkhoff_restrict(build_bell_graph(3))
        assert p.kind == "birkhoff"
        assert [bin(v).count("1") for v in p.vertices] == [2]


class TestDecompositions:
    def test_bell3_adjacent_pair_unique_split(self):
        p = bell3_polytope()
        gs = p.ground
        a = gs.mask_of([(1, 2)])
        b = gs.mask_of([(2, 3)])
        # e_A + e_B also splits as e_{} + e_{(1,2),(2,3)}
        splits = decompositions(p, p.index[a], p.index[b])
        assert len(splits) == 2

    def test_empty_vs_doubleton(self):
        p = bell3_polytope()
        gs = p.ground
        a = 0
        b = gs.mask_of([(1, 2), (2, 3)])
        splits = decompositions(p, p.index[a], p.index[b])
        assert len(splits) == 2

    def test_adjacent_has_one_split(self):
        p = bell3_polytope()
        gs = p.ground
        a = 0
        b = gs.mask_of([(1, 3)])
        splits = decompositions(p, p.index[a], p.index[b])
        assert splits == [tuple(sorted((p.index[a], p.index[b])))]

    def test_splits_respect_union_and_intersection(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_graph(rng, 5)
            p = ZeroOnePolytope.from_graph(g)
            k = len(p.vertices)
            i = rng.randrange(k)
            j = rng.randrange(k)
            if i == j:
                continue
            a, b = p.vertices[i], p.vertices[j]
            for ci, di in decompositions(p, i, j):
                c, d = p.vertices[ci], p.vertices[di]
                assert c & d == a & b
                assert c | d == a | b


class TestEdgeE:
    def test_bell3_full_skeleton(self):
        p = bell3_polytope()
        gs = p.ground
        label = {
            frozenset(): 0,
            frozenset({(1, 2)}): gs.mask_of([(1, 2)]),
            frozenset({(1, 3)}): gs.mask_of([(1, 3)]),
            frozenset({(2, 3)}): gs.mask_of([(2, 3)]),
            frozenset({(1, 2), (2, 3)}): gs.mask_of([(1, 2), (2, 3)]),
        }
        nonedges = {
            (frozenset(), frozenset({(1, 2), (2, 3)})),
            (frozenset({(1, 2)}), frozenset({(2, 3)})),
        }
        names = list(label)
        for x in range(len(names)):
            for y in range(x + 1, len(names)):
                u, v = names[x], names[y]
                want = (u, v) not in nonedges and (v, u) not in nonedges
                got = is_edge_E(p, p.index[label[u]], p.index[label[v]])
                assert got == want, (u, v)

    def test_skeleton_matches_oracle_on_bell3(self):
        p = bell3_polytope()
        se = build_skeleton_E(p)
        so = build_skeleton_oracle(p)
        assert se.edges == so.edges
        assert len(se.edges) == 8

    def test_cube_skeleton_is_hamming_graph(self):
        p = ZeroOnePolytope.from_graph(build_empty_graph(3))
        s = build_skeleton_E(p)
        for i, j in s.edges:
            assert bin(p.vertices[i] ^ p.vertices[j]).count("1") == 1
        assert len(s.edges) == 12

    def test_same_vertex_rejected(self):
        p = bell3_polytope()
        with pytest.raises(ValueError):
            is_edge_E(p, 1, 1)

    @given(st.integers(0, 2**12))
    @settings(max_examples=40, deadline=None)
    def test_oracle_agreement_random(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 5)
        p = ZeroOnePolytope.from_graph(g)
        k = len(p.vertices)
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            return
        assert is_edge_E(p, i, j) == oracle_is_edge(p, i, j)


class TestDiameter:
    def test_cube3(self):
        p = ZeroOnePolytope.from_graph(build_empty_graph(3))
        assert diameter(build_skeleton_E(p)) == 3

    def test_bell3(self):
        assert diameter(build_skeleton_E(bell3_polytope())) == 2

    def test_single_vertex(self):
        p = birkhoff_restrict(build_bell_graph(3))
        assert diameter(build_skeleton_E(p)) == 0

    def test_disconnected_is_none(self):
        from sspkit.skeleton import Skeleton

        s = Skeleton.make(3, [(0, 1)], "condition-E")
        assert diameter(s) is None


class TestQuasimatroidExchange:
    def test_contract_on_birkhoff_family(self):
        rng = random.Random(4242)
        hits = 0
        while hits < 25:
            g = random_graph(rng, 6)
            p = birkhoff_restrict(g)
            if len(p.vertices) < 2:
                continue
            a, b = rng.sample(list(p.vertices), 2)
            picks = [i for i in range(g.n) if (a >> i) & 1 and not (b >> i) & 1]
            if not picks:
                continue
            i = picks[0]
            drop, add = quasimatroid_exchange(set(p.vertices), a, b, i)
            # swaps one element of a-b for some subset avoiding i
            assert drop and (a & drop) == drop and (b & drop) == 0
            assert add and (b & add) == add and (a & add) == 0
            new = (a ^ drop) | add
            assert new in p.index
            assert not (new >> i) & 1 or (b >> i) & 1
            assert is_edge_E(p, p.index[a], p.index[new])
            hits += 1

    def test_rejects_unequal_cardinality(self):
        with pytest.raises(ValueError):
            quasimatroid_exchange({0b11, 0b1}, 0b11, 0b1, 0)


class TestPaths:
    def test_bp_path_base_case(self):
        g = build_bell_graph(3)
        walk = bp_path(birkhoff_restrict(g), g.ground.mask_of([(1, 2), (2, 3)]),
                       g.ground.mask_of([(1, 2), (2, 3)]))
        assert len(walk) == 1

    def test_bp_path_random_contract(self):
        rng = random.Random(31337)
        done = 0
        while done < 30:
            g = random_graph(rng, 6)
            p = birkhoff_restrict(g)
            if len(p.vertices) < 2:
                continue
            a, b = rng.sample(list(p.vertices), 2)
            walk = bp_path(p, a, b)
            assert walk[0] == a and walk[-1] == b
            assert len(walk) - 1 <= p.rank
            for u, v in zip(walk, walk[1:]):
                assert u != v
                assert is_edge_E(p, p.index[u], p.index[v])
            done += 1

    def test_base_change_worked_example(self):
        # ground {(1,2),(1,3),(2,3)} with clash graph of the 3-pair family:
        # from {(1,3)} toward {(1,2),(2,3)} the unique-split member is the
        # target itself
        g = build_bell_graph(3)
        gs = g.ground
        a = gs.mask_of([(1, 3)])
        b = gs.mask_of([(1, 2), (2, 3)])
        nxt = base_change(ZeroOnePolytope.from_graph(g), a, b)
        assert nxt == b

    def test_ssp_path_through_empty_set(self):
        g = build_bell_graph(3)
        gs = g.ground
        a = gs.mask_of([(1, 3)])
        b = gs.mask_of([(1, 2)])
        walk = ssp_path(ZeroOnePolytope.from_graph(g), a, b)
        p = ZeroOnePolytope.from_graph(g)
        assert walk[0] == a and walk[-1] == b
        assert len(walk) - 1 <= p.rank
        for u, v in zip(walk, walk[1:]):
            assert is_edge_E(p, p.index[u], p.index[v])

    def test_ssp_path_random_contract(self):
        rng = random.Random(2718)
        for _ in range(40):
            g = random_graph(rng, 6)
            p = ZeroOnePolytope.from_graph(g)
            a, b = rng.sample(list(p.vertices), 2)
            walk = ssp_path(p, a, b)
            assert walk[0] == a and walk[-1] == b
            assert len(walk) - 1 <= p.rank
            for u, v in zip(walk, walk[1:]):
                assert u != v
                assert is_edge_E(p, p.index[u], p.index[v])

    def test_ssp_path_needs_stable_set_kind(self):
        g = build_bell_graph(3)
        vertices = ZeroOnePolytope.from_graph(g).vertices
        for p in (birkhoff_restrict(g), ZeroOnePolytope.raw(g.ground, vertices)):
            with pytest.raises(ValueError, match="stable-set"):
                ssp_path(p, p.vertices[0], p.vertices[-1])

    def test_path_endpoints_must_be_vertices(self):
        g = build_bell_graph(3)
        bad = g.ground.mask_of([(1, 2), (1, 3)])  # not stable
        with pytest.raises(ValueError):
            ssp_path(ZeroOnePolytope.from_graph(g), bad, 0)
