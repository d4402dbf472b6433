"""JSON wire formats and DOT export.

Labels may be ints, strings, or (nested) tuples of those; tuples travel as
JSON arrays and come back as tuples. All writers emit sorted keys and
two-space indentation so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Sequence

from .graphs import MAX_INDEPENDENTS, GroundSet, Label, SimpleGraph
from .skeleton import Skeleton, ZeroOnePolytope

if TYPE_CHECKING:  # the readers and writers below import these when run
    from .families import Poset
    from .geometry import Inequality
    from .matroids import Matroid


# One [int, int] pair as the indenting encoder writes it two levels deep.
_PAIR = "    [\n      %d,\n      %d\n    ]"


def dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, byte for
    byte, faster on the edge lists of skeleton files.

    With indent, json.dumps runs its pure-Python encoder token by token.
    A top-level value that is a list of [int, int] pairs is written
    through one %d template instead; every other value goes through the
    encoder one level down and is re-indented by one level.
    """
    if type(obj) is not dict or not obj or not all(type(k) is str for k in obj):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    items = []
    for key in sorted(obj):
        val = obj[key]
        if _int_pairs(val):
            text = "[\n" + ",\n".join([_PAIR] * len(val)) % tuple(
                x for pair in val for x in pair
            ) + "\n  ]"
        else:
            text = json.dumps(val, indent=2, sort_keys=True).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def _int_pairs(val: Any) -> bool:
    """A non-empty list of two-element lists of ints (not bools)."""
    return (
        type(val) is list
        and bool(val)
        and all(
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is int
            for pair in val
        )
    )


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
    return [[encode_label(x) for x in p.ground.labels_of(v)] for v in p.vertices]


def polytope_to_json(p: ZeroOnePolytope) -> dict:
    out: dict[str, Any] = {
        "kind": p.kind,
        "ground": [encode_label(x) for x in p.ground.labels],
        "vertices": _vertex_labels(p),
        "rank": p.rank,
    }
    if p.graph is not None:
        labels = [encode_label(x) for x in p.graph.ground.labels]
        out["graph"] = {"edges": [[labels[i], labels[j]] for i, j in p.graph.edges()]}
    return out


def polytope_from_json(obj: dict) -> ZeroOnePolytope:
    obj = _object(obj)
    ground = GroundSet(_labels(obj, "ground"))
    # the graph kinds' families are capped by their graph's enumeration
    capped = obj.get("kind") not in ("stable-set", "birkhoff")
    vertices = [ground.mask_of(s) for s in _label_lists(obj, "vertices", capped)]
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
        "vertices": _vertex_labels(p),
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
    from .geometry import normalized_int_form

    out = []
    for q in facets:
        coeffs, rhs = normalized_int_form(q)
        out.append({"coeffs": list(coeffs), "rhs": rhs})
    return {"facets": out}


def matroid_from_json(obj: dict) -> Matroid:
    from .matroids import Matroid, build_graphic, build_partition, build_uniform

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
    return Matroid(ground, fam)


def relation_graph_from_json(obj: dict) -> SimpleGraph:
    from .families import build_relation_graph

    obj = _object(obj)
    return build_relation_graph(_labels(obj, "labels"), _pairs(obj, "pairs"))


def poset_from_json(obj: dict) -> Poset:
    from .families import Poset

    obj = _object(obj)
    return Poset.from_relation(_labels(obj, "labels"), _pairs(obj, "less_than"))


def _dot_name(subset: Sequence[Label]) -> str:
    """The subset as "{a,b}", escaped to sit inside a quoted DOT string."""
    inner = ",".join(str(x) for x in subset)
    return "{" + inner.replace("\\", "\\\\").replace('"', '\\"') + "}"


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
