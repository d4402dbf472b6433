"""JSON wire formats and DOT export.

Labels may be ints, strings, or (nested) tuples of those; tuples travel as
JSON arrays and come back as tuples. All writers emit sorted keys and
two-space indentation so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .families import Poset, build_relation_graph
from .geometry import Inequality, make_inequality, normalized_int_form
from .graphs import GroundSet, Label, SimpleGraph
from .matroids import (
    Matroid,
    build_graphic,
    build_partition,
    build_uniform,
)
from .skeleton import Skeleton, ZeroOnePolytope


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def encode_label(lab: Label) -> Any:
    if isinstance(lab, tuple):
        return [encode_label(x) for x in lab]
    return lab


def decode_label(obj: Any) -> Label:
    if isinstance(obj, list):
        return tuple(decode_label(x) for x in obj)
    if isinstance(obj, dict):
        raise ValueError("a label must be a number, a string or a list")
    return obj


def _object(obj: Any) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _list(val: Any, what: str) -> list:
    if not isinstance(val, list):
        raise ValueError(f"{what} must be a list, got {type(val).__name__}")
    return val


def _int(val: Any, what: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ValueError(f"{what} must be an integer, got {val!r}")
    return val


def _labels(obj: dict, key: str) -> list[Label]:
    return [decode_label(x) for x in _list(obj[key], f"field {key!r}")]


def _label_lists(obj: dict, key: str) -> list[list[Label]]:
    return [
        [decode_label(x) for x in _list(item, f"each entry of {key!r}")]
        for item in _list(obj[key], f"field {key!r}")
    ]


def _pairs(obj: dict, key: str) -> list[tuple[Label, Label]]:
    out = []
    for item in _label_lists(obj, key):
        if len(item) != 2:
            raise ValueError(f"each entry of {key!r} must have two elements")
        out.append((item[0], item[1]))
    return out


def graph_to_json(g: SimpleGraph) -> dict:
    labels = g.ground.labels
    return {
        "labels": [encode_label(x) for x in labels],
        "edges": [
            [encode_label(labels[i]), encode_label(labels[j])]
            for i, j in g.edges()
        ],
    }


def graph_from_json(obj: dict) -> SimpleGraph:
    obj = _object(obj)
    return SimpleGraph.from_edges(_labels(obj, "labels"), _pairs(obj, "edges"))


def polytope_to_json(p: ZeroOnePolytope) -> dict:
    out: dict[str, Any] = {
        "kind": p.kind,
        "ground": [encode_label(x) for x in p.ground.labels],
        "vertices": [
            [encode_label(x) for x in p.ground.labels_of(v)]
            for v in p.vertices
        ],
        "rank": p.rank,
    }
    if p.graph is not None:
        out["graph"] = {
            "edges": graph_to_json(p.graph)["edges"],
        }
    return out


def polytope_from_json(obj: dict) -> ZeroOnePolytope:
    obj = _object(obj)
    ground = GroundSet(_labels(obj, "ground"))
    vertices = [ground.mask_of(subset) for subset in _label_lists(obj, "vertices")]
    graph = None
    if "graph" in obj:
        edges = _pairs(_object(obj["graph"]), "edges")
        graph = SimpleGraph.from_edges(ground.labels, edges)
    p = ZeroOnePolytope(ground, vertices, obj["kind"], graph=graph)
    rank = obj.get("rank")
    if rank is not None and _int(rank, "field 'rank'") != p.rank:
        raise ValueError(
            f"field 'rank' is {rank} but the largest vertex has {p.rank} elements"
        )
    return p


def skeleton_to_json(p: ZeroOnePolytope, s: Skeleton) -> dict:
    if s.vertex_count != len(p.vertices):
        raise ValueError("skeleton does not match the polytope")
    return {
        "vertices": [
            [encode_label(x) for x in p.ground.labels_of(v)]
            for v in p.vertices
        ],
        "edges": [[i, j] for i, j in s.edges],
        "provenance": s.provenance,
    }


def skeleton_from_json(obj: dict) -> tuple[list[tuple[Label, ...]], Skeleton]:
    obj = _object(obj)
    verts = [tuple(subset) for subset in _label_lists(obj, "vertices")]
    edges = [
        (_int(i, "an edge end"), _int(j, "an edge end"))
        for i, j in _pairs(obj, "edges")
    ]
    return verts, Skeleton.make(len(verts), edges, obj["provenance"])


def facets_to_json(facets: Sequence[Inequality]) -> dict:
    out = []
    for q in facets:
        coeffs, rhs = normalized_int_form(q)
        out.append({"coeffs": list(coeffs), "rhs": rhs})
    return {"facets": out}


def facets_from_json(obj: dict) -> list[Inequality]:
    return [
        make_inequality(_list(item["coeffs"], "field 'coeffs'"), item["rhs"])
        for item in map(_object, _list(_object(obj)["facets"], "field 'facets'"))
    ]


def matroid_to_json(m: Matroid) -> dict:
    return {
        "ground": [encode_label(x) for x in m.ground.labels],
        "independents": [
            [encode_label(x) for x in m.ground.labels_of(s)]
            for s in m.independents
        ],
    }


def matroid_from_json(obj: dict) -> Matroid:
    obj = _object(obj)
    if "uniform" in obj:
        nk = _list(obj["uniform"], "field 'uniform'")
        if len(nk) != 2:
            raise ValueError("field 'uniform' must be [n, k]")
        return build_uniform(*(_int(x, "field 'uniform'") for x in nk))
    if "partition" in obj:
        sizes = _list(obj["partition"], "field 'partition'")
        return build_partition([_int(x, "a block size") for x in sizes])
    if "graphic" in obj:
        return build_graphic(_pairs(obj, "graphic"))
    ground = GroundSet(_labels(obj, "ground"))
    fam = [ground.mask_of(subset) for subset in _label_lists(obj, "independents")]
    return Matroid(ground, fam)


def relation_graph_from_json(obj: dict) -> SimpleGraph:
    obj = _object(obj)
    return build_relation_graph(_labels(obj, "labels"), _pairs(obj, "pairs"))


def poset_from_json(obj: dict) -> Poset:
    obj = _object(obj)
    return Poset.from_relation(_labels(obj, "labels"), _pairs(obj, "less_than"))


def _dot_name(subset: Sequence[Label]) -> str:
    inner = ",".join(str(x) for x in subset)
    return "{" + inner + "}"


def skeleton_to_dot(vertices: Sequence[Sequence[Label]], s: Skeleton) -> str:
    """Undirected DOT graph; node names are the subset labels."""
    lines = ["graph skeleton {"]
    lines.append(f'  // provenance: {s.provenance}')
    for i, subset in enumerate(vertices):
        lines.append(f'  v{i} [label="{_dot_name(subset)}"];')
    for i, j in s.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
