"""JSON formats round-trip byte-identically; DOT export is stable."""

import json

import pytest

from sspkit import serialize
from sspkit.families import (
    build_bell_graph,
    build_noncrossing_graph,
    build_nonnesting_graph,
)
from sspkit.geometry import enumerate_facets, make_inequality
from sspkit.matroids import build_graphic, build_partition, build_uniform
from sspkit.skeleton import (
    ZeroOnePolytope,
    birkhoff_restrict,
    build_skeleton_E,
)


class TestGraphJson:
    def test_round_trip(self):
        g = build_bell_graph(3)
        blob = serialize.dumps(serialize.graph_to_json(g))
        g2 = serialize.graph_from_json(json.loads(blob))
        assert g2.ground == g.ground
        assert g2.adj == g.adj
        assert serialize.dumps(serialize.graph_to_json(g2)) == blob

    def test_labels_decode_to_tuples(self):
        g = build_bell_graph(3)
        g2 = serialize.graph_from_json(json.loads(
            serialize.dumps(serialize.graph_to_json(g))
        ))
        assert g2.ground.labels[0] == (1, 2)


class TestPolytopeJson:
    def test_stable_set_round_trip(self):
        p = ZeroOnePolytope.from_graph(build_nonnesting_graph(3))
        blob = serialize.dumps(serialize.polytope_to_json(p))
        p2 = serialize.polytope_from_json(json.loads(blob))
        assert p2.kind == p.kind
        assert p2.vertices == p.vertices
        assert p2.rank == p.rank
        assert serialize.dumps(serialize.polytope_to_json(p2)) == blob

    def test_birkhoff_round_trip(self):
        p = birkhoff_restrict(build_bell_graph(3))
        p2 = serialize.polytope_from_json(json.loads(
            serialize.dumps(serialize.polytope_to_json(p))
        ))
        assert p2.kind == "birkhoff"
        assert p2.vertices == p.vertices

    def test_matroid_polytopes_round_trip(self):
        from sspkit.matroids import basis_polytope, independence_polytope

        for p in (
            independence_polytope(build_uniform(4, 2)),
            basis_polytope(build_uniform(4, 2)),
        ):
            p2 = serialize.polytope_from_json(json.loads(
                serialize.dumps(serialize.polytope_to_json(p))
            ))
            assert p2.kind == p.kind
            assert p2.vertices == p.vertices

    @pytest.mark.parametrize("rank", [1, -3])
    def test_wrong_rank_is_error(self, rank):
        obj = serialize.polytope_to_json(
            ZeroOnePolytope.from_graph(build_noncrossing_graph(5))
        )
        obj["rank"] = rank
        with pytest.raises(ValueError, match="rank"):
            serialize.polytope_from_json(obj)

    def test_rank_is_optional(self):
        p = ZeroOnePolytope.from_graph(build_noncrossing_graph(5))
        obj = serialize.polytope_to_json(p)
        del obj["rank"]
        assert serialize.polytope_from_json(obj).rank == p.rank == 4


class TestSkeletonJson:
    def test_round_trip(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        s = build_skeleton_E(p)
        blob = serialize.dumps(serialize.skeleton_to_json(p, s))
        verts, s2 = serialize.skeleton_from_json(json.loads(blob))
        assert s2 == s
        assert len(verts) == s.vertex_count
        assert verts[0] == ()


class TestFacetsJson:
    def test_round_trip_normalizes(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        facets = enumerate_facets(p)
        blob = serialize.dumps(serialize.facets_to_json(facets))
        f2 = serialize.facets_from_json(json.loads(blob))
        assert f2 == facets

    def test_fractions_normalized_in_transit(self):
        from fractions import Fraction

        q = make_inequality([Fraction(1, 2), Fraction(1, 2)], Fraction(1, 2))
        blob = serialize.dumps(serialize.facets_to_json([q]))
        data = json.loads(blob)
        assert data["facets"][0]["coeffs"] == [1, 1]
        assert data["facets"][0]["rhs"] == 1


class TestMatroidJson:
    def test_explicit_round_trip(self):
        m = build_partition((2, 3))
        blob = serialize.dumps(serialize.matroid_to_json(m))
        m2 = serialize.matroid_from_json(json.loads(blob))
        assert m2.ground == m.ground
        assert m2.independents == m.independents

    def test_shorthands(self):
        m = serialize.matroid_from_json({"uniform": [4, 2]})
        assert len(m.bases()) == 6
        m = serialize.matroid_from_json({"partition": [2, 3]})
        assert len(m.independents) == 12
        m = serialize.matroid_from_json(
            {"graphic": [[1, 2], [2, 3], [1, 3]]}
        )
        assert m.rank == 2
        assert len(m.bases()) == 3

    def test_graphic_shorthand_matches_builder(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        via_json = serialize.matroid_from_json(
            {"graphic": [list(e) for e in edges]}
        )
        direct = build_graphic(edges)
        assert via_json.independents == direct.independents


class TestDot:
    def test_skeleton_dot_contains_all_edges(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        s = build_skeleton_E(p)
        labels = [p.ground.labels_of(v) for v in p.vertices]
        dot = serialize.skeleton_to_dot(labels, s)
        assert dot.startswith("graph skeleton {")
        assert dot.count(" -- ") == len(s.edges)
        assert dot.rstrip().endswith("}")
