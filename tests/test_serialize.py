"""JSON formats round-trip byte-identically; DOT export is stable."""

import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sspkit import serialize
from sspkit.families import (
    build_bell_graph,
    build_noncrossing_graph,
    build_nonnesting_graph,
)
from sspkit.geometry import Inequality, enumerate_facets
from sspkit.graphs import MAX_INDEPENDENTS, GroundSet, SimpleGraph
from sspkit.matroids import (
    basis_polytope,
    build_graphic,
    build_partition,
    build_uniform,
)
from sspkit.skeleton import (
    ZeroOnePolytope,
    birkhoff_restrict,
    build_skeleton_E,
)


def vertex_labels(p):
    encode = serialize.encode_label
    return [[encode(x) for x in p.ground.labels_of(v)] for v in p.vertices]


def skeleton_to_json(p, s):
    """Reference: the skeleton file as the dict that json.dumps writes."""
    return {
        "vertices": vertex_labels(p),
        "edges": [[i, j] for i, j in s.edges],
        "provenance": s.provenance,
    }


def skeleton_to_dot(p, s):
    """Reference: the DOT graph, one line per edge pair."""
    lines = ["graph skeleton {", f"  // provenance: {s.provenance}"]
    for i, v in enumerate(p.vertices):
        lines.append(f'  v{i} [label="{serialize._dot_name(p.ground.labels_of(v))}"];')
    lines += [f"  v{i} -- v{j};" for i, j in s.edges]
    return "\n".join(lines + ["}"]) + "\n"


def reference_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_pairs = st.lists(
    st.lists(st.integers() | st.booleans(), min_size=2, max_size=2), max_size=4
)
_values = st.recursive(
    _scalars | _pairs,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestDumps:
    """dumps is the indenting encoder with sorted keys and a final
    newline."""

    @given(st.dictionaries(st.text(), _values) | _values)
    @settings(max_examples=100, deadline=None)
    @example({})
    @example({"edges": []})
    @example({"edges": [[0, 1], [0, 2]]})
    @example({"edges": [[True, 1], [0, 1]], "flag": [[False, True]]})
    @example({"rows": [[1, 2, 3]], "cells": [[1], [2, 3]], "nest": [[[1, 2]]]})
    @example({"graph": {"edges": [[0, 1]]}, "é": [[-1, 10**30]], "ключ": "значение"})
    @example([[0, 1], [2, 3]])
    @example(7)
    def test_matches_indenting_encoder(self, obj):
        assert serialize.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestGraphJson:
    """A graph travels inside a polytope file, as its edge list."""

    def test_round_trip(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        blob = serialize.dumps(serialize.polytope_to_json(p))
        g2 = serialize.polytope_from_json(json.loads(blob)).graph
        assert g2.ground == p.graph.ground
        assert g2.adj == p.graph.adj
        edges = json.loads(blob)["graph"]["edges"]
        labels = [serialize.encode_label(x) for x in g2.ground.labels]
        assert edges == [[labels[i], labels[j]] for i, j in g2.edges()]

    def test_labels_decode_to_tuples(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        p2 = serialize.polytope_from_json(json.loads(
            serialize.dumps(serialize.polytope_to_json(p))
        ))
        assert p2.graph.ground.labels[0] == (1, 2)


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
        for p in (build_uniform(4, 2), basis_polytope(build_uniform(4, 2))):
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
    def test_mismatched_polytope_is_error(self):
        s = build_skeleton_E(ZeroOnePolytope.from_graph(build_bell_graph(3)))
        with pytest.raises(ValueError, match="does not match"):
            serialize.skeleton_json(ZeroOnePolytope.from_graph(build_bell_graph(2)), s)


# Labels as they come out of files: ints, strings JSON must escape, and
# tuples of those, nested.
_label = st.recursive(
    st.integers(-5, 10**20) | st.text("a\"\\\té中\U0001f600 1", max_size=3),
    lambda kids: st.lists(kids, max_size=3).map(tuple),
    max_leaves=4,
)


@st.composite
def labelled_graphs(draw):
    """A graph on up to six distinct labels: empty, edgeless, complete or
    random."""
    labels = draw(st.lists(_label, unique=True, max_size=6))
    pairs = list(combinations(labels, 2))
    shape = draw(st.sampled_from(["edgeless", "complete", "random"]))
    if shape == "edgeless":
        pairs = []
    elif shape == "random":
        pairs = [e for e in pairs if draw(st.booleans())]
    return SimpleGraph.from_edges(labels, pairs)


class TestWriters:
    """skeleton_json and skeleton_to_dot write their edge lists straight
    from the rows; every byte must be what json.dumps(indent=2,
    sort_keys=True) makes of the reference dict above, and the DOT lines
    what one line per edge pair makes."""

    def check(self, p):
        s = build_skeleton_E(p)
        assert serialize.skeleton_json(p, s) == reference_text(skeleton_to_json(p, s))
        assert serialize.skeleton_to_dot(p, s) == skeleton_to_dot(p, s)

    @given(labelled_graphs(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_graph_kinds(self, g, birkhoff):
        self.check(birkhoff_restrict(g) if birkhoff else ZeroOnePolytope.from_graph(g))

    @given(st.lists(_label, unique=True, max_size=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_raw_families(self, labels, data):
        masks = data.draw(st.sets(st.integers(0, (1 << len(labels)) - 1), min_size=1))
        self.check(ZeroOnePolytope(GroundSet(labels), sorted(masks), "raw"))

    @pytest.mark.parametrize("birkhoff", [False, True],
                             ids=["independence_polytope", "basis_polytope"])
    def test_matroid_kinds(self, birkhoff):
        p = build_uniform(4, 2)
        self.check(basis_polytope(p) if birkhoff else p)


class TestFacetsJson:
    def test_round_trip_normalizes(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        facets = enumerate_facets(p)
        blob = serialize.dumps(serialize.facets_to_json(facets))
        rows = json.loads(blob)["facets"]
        assert [Inequality(tuple(f["coeffs"]), f["rhs"]) for f in rows] == facets

    def test_fractions_normalized_in_transit(self):
        # (1/2, 1/2) . x <= 1/2 travels as its scaled int row (1, 1) . x <= 1
        q = Inequality((1, 1), 1)
        blob = serialize.dumps(serialize.facets_to_json([q]))
        data = json.loads(blob)
        assert data["facets"][0]["coeffs"] == [1, 1]
        assert data["facets"][0]["rhs"] == 1


class TestMatroidJson:
    def test_explicit_round_trip(self):
        m = build_partition((2, 3))
        obj = {
            "ground": list(m.ground.labels),
            "independents": [list(m.ground.labels_of(s)) for s in m.vertices],
        }
        m2 = serialize.matroid_from_json(json.loads(json.dumps(obj)))
        assert m2.ground == m.ground
        assert m2.vertices == m.vertices

    def test_shorthands(self):
        m = serialize.matroid_from_json({"uniform": [4, 2]})
        assert len(basis_polytope(m).vertices) == 6
        m = serialize.matroid_from_json({"partition": [2, 3]})
        assert len(m.vertices) == 12
        m = serialize.matroid_from_json(
            {"graphic": [[1, 2], [2, 3], [1, 3]]}
        )
        assert m.rank == 2
        assert len(basis_polytope(m).vertices) == 3

    def test_graphic_shorthand_matches_builder(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4)]
        via_json = serialize.matroid_from_json(
            {"graphic": [list(e) for e in edges]}
        )
        direct = build_graphic(edges)
        assert via_json.vertices == direct.vertices


# every subset of 1..11 with at most five elements: 1024 sets, U(11, 5)
CAP_GROUND = list(range(1, 12))
CAP_FAMILY = [list(c) for k in range(6) for c in combinations(CAP_GROUND, k)]


class TestFamilyCap:
    """Families not read off a graph stop at 1024 sets, checked before any
    set is read."""

    def test_readers_accept_the_cap(self):
        m = serialize.matroid_from_json(
            {"ground": CAP_GROUND, "independents": CAP_FAMILY}
        )
        assert len(m.vertices) == MAX_INDEPENDENTS == 1024
        for kind in ("raw", "matroid-independence"):
            p = serialize.polytope_from_json(
                {"kind": kind, "ground": CAP_GROUND, "vertices": CAP_FAMILY}
            )
            assert len(p.vertices) == 1024

    @pytest.mark.parametrize("kind", ["raw", "matroid-independence", "matroid-bases"])
    def test_polytope_reader_refuses_past_the_cap(self, kind):
        obj = {"kind": kind, "ground": CAP_GROUND, "vertices": CAP_FAMILY + [[1] * 6]}
        with pytest.raises(ValueError, match="'vertices' lists more than 1024 sets"):
            serialize.polytope_from_json(obj)

    def test_matroid_reader_refuses_past_the_cap(self):
        obj = {"ground": CAP_GROUND, "independents": CAP_FAMILY + [[1] * 6]}
        with pytest.raises(ValueError, match="'independents' lists more than 1024"):
            serialize.matroid_from_json(obj)


class TestDot:
    def test_skeleton_dot_contains_all_edges(self):
        p = ZeroOnePolytope.from_graph(build_bell_graph(3))
        s = build_skeleton_E(p)
        dot = serialize.skeleton_to_dot(p, s)
        assert dot.startswith("graph skeleton {")
        assert dot.count(" -- ") == len(s.edges)
        assert dot.rstrip().endswith("}")
