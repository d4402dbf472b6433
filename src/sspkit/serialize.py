"""JSON wire formats and DOT export.

Labels may be ints, strings, or (nested) tuples of those; tuples travel as
JSON arrays and come back as tuples. All writers emit sorted keys and
two-space indentation so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Sequence

from .graphs import MAX_INDEPENDENTS, GroundSet, Label, SimpleGraph, bits
from .skeleton import Skeleton, ZeroOnePolytope

if TYPE_CHECKING:
    from .geometry import Inequality


def dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline: the form of
    every file and report (skeleton_json writes its edge list itself)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def encode_label(lab: Label) -> Any:
    if isinstance(lab, tuple):
        return [encode_label(x) for x in lab]
    return lab


def decode_label(obj: Any) -> Label:
    if type(obj) is list:
        return tuple([decode_label(x) if type(x) in (list, dict) else x for x in obj])
    if type(obj) is dict:
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


def _label_lists(obj: dict, key: str, capped: bool = False) -> list[list[Label]]:
    items = _list(obj[key], f"field {key!r}")
    if capped and len(items) > MAX_INDEPENDENTS:  # before any is read
        raise ValueError(f"field {key!r} lists more than {MAX_INDEPENDENTS} sets")
    return [
        [decode_label(x) for x in _list(item, f"each entry of {key!r}")]
        for item in items
    ]


def _pairs(obj: dict, key: str) -> list[tuple[Label, Label]]:
    out = []
    for item in _label_lists(obj, key):
        if len(item) != 2:
            raise ValueError(f"each entry of {key!r} must have two elements")
        out.append((item[0], item[1]))
    return out


def _vertex_labels(p: ZeroOnePolytope) -> list[list[Any]]:
    """Each vertex as the list of its encoded labels, in ground order."""
    labels = [encode_label(x) for x in p.ground.labels]
    return [[labels[k] for k in bits(v)] for v in p.vertices]


def polytope_to_json(p: ZeroOnePolytope) -> dict:
    labels = [encode_label(x) for x in p.ground.labels]
    out: dict[str, Any] = {
        "kind": p.kind,
        "ground": labels,
        "vertices": _vertex_labels(p),
        "rank": p.rank,
    }
    if p.graph is not None:
        out["graph"] = {"edges": [[labels[i], labels[j]] for i, j in p.graph.edges()]}
    return out


def polytope_from_json(obj: dict) -> ZeroOnePolytope:
    obj = _object(obj)
    ground = GroundSet(_labels(obj, "ground"))
    # the graph kinds' families are capped by their graph's enumeration;
    # the other kinds ignore a graph, as they ignore any key they do not use
    graph_kind = obj.get("kind") in ("stable-set", "birkhoff")
    vertices = [ground.mask_of(s) for s in _label_lists(obj, "vertices", not graph_kind)]
    graph = None
    if graph_kind and "graph" in obj:
        edges = _pairs(_object(obj["graph"]), "edges")
        graph = SimpleGraph.from_edges(ground.labels, edges)
    p = ZeroOnePolytope(ground, vertices, obj["kind"], graph=graph)
    rank = obj.get("rank")
    if rank is not None and _int(rank, "field 'rank'") != p.rank:
        raise ValueError(
            f"field 'rank' is {rank} but the largest vertex has {p.rank} elements"
        )
    return p


def _edge_runs(s: Skeleton, head: str, tail: str, sep: str) -> list[str]:
    """Per vertex a with a row, its edges (a, b) written as head % a, then
    b, then tail, joined by sep: one string per row, none per edge."""
    names = [str(b) for b in range(s.vertex_count)]
    runs = []
    for a, row in enumerate(s.rows):
        if row:
            start = head % a
            ends = map(names.__getitem__, row)
            runs.append(start + (tail + sep + start).join(ends) + tail)
    return runs


def skeleton_json(p: ZeroOnePolytope, s: Skeleton) -> str:
    """The skeleton file as dumps writes {"edges": [[a, b], ...],
    "provenance": ..., "vertices": ...}, with the edge list, the key that
    sorts first, written straight from the rows."""
    if s.vertex_count != len(p.vertices):
        raise ValueError("skeleton does not match the polytope")
    runs = _edge_runs(s, "[\n      %d,\n      ", "\n    ]", ",\n    ")
    edges = "[\n    " + ",\n    ".join(runs) + "\n  ]" if runs else "[]"
    rest = dumps({"provenance": s.provenance, "vertices": _vertex_labels(p)})
    return '{\n  "edges": ' + edges + ",\n" + rest[2:]


def facets_to_json(facets: Sequence[Inequality]) -> dict:
    """Each row as given: enumerate_facets returns them primitive."""
    return {"facets": [{"coeffs": list(q.coeffs), "rhs": q.rhs} for q in facets]}


def matroid_from_json(obj: dict) -> ZeroOnePolytope:
    """The independence polytope of a matroid spec: a shorthand, or an
    explicit ground set and independent sets."""
    from .matroids import (
        build_graphic, build_partition, build_uniform, independence_polytope,
    )

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
    fam = [ground.mask_of(s) for s in _label_lists(obj, "independents", capped=True)]
    return independence_polytope(ground, fam)


def relation_graph_from_json(obj: dict) -> SimpleGraph:
    from .families import build_relation_graph

    obj = _object(obj)
    return build_relation_graph(_labels(obj, "labels"), _pairs(obj, "pairs"))


def poset_from_json(obj: dict) -> SimpleGraph:
    """The comparability graph of the order that "less_than" generates."""
    from .families import build_comparability_graph

    obj = _object(obj)
    return build_comparability_graph(_labels(obj, "labels"), _pairs(obj, "less_than"))


def _dot_name(subset: Sequence[Label]) -> str:
    """The subset as "{a,b}", escaped to sit inside a quoted DOT string."""
    inner = ",".join(str(x) for x in subset)
    return "{" + inner.replace("\\", "\\\\").replace('"', '\\"') + "}"


def skeleton_to_dot(p: ZeroOnePolytope, s: Skeleton) -> str:
    """Undirected DOT graph; node names are the vertices' subset labels."""
    lines = ["graph skeleton {", f"  // provenance: {s.provenance}"]
    lines += [f'  v{i} [label="{_dot_name(p.ground.labels_of(v))}"];'
              for i, v in enumerate(p.vertices)]
    lines += _edge_runs(s, "  v%d -- v", ";", "\n")
    return "\n".join(lines) + "\n}\n"
