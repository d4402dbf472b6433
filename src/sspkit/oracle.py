"""The LP adjacency oracle: geometric adjacency of two vertices, and the
skeleton it gives.

Vertices u, v of a polytope P fail to be adjacent exactly when u - v is a
nonnegative combination of the directions (w - v) over the other vertices
w, so adjacency reduces to exact LP infeasibility. Most pairs never reach
the LP: a non-edge shows a second split of u + v, and an edge a linear
functional maximised over P exactly at u and v. The oracle loads neither
condition E's kernels (skeleton) nor the facet machinery (geometry); the
element masks it reads belong to the polytope (graphs._element_masks).
"""

from __future__ import annotations

from typing import Sequence

from .graphs import (
    ORACLE_VERTEX_CAP, Skeleton, SizeLimitError, ZeroOnePolytope, _check_pair,
    _element_masks, bits,
)
from .linalg import lp_feasible


def oracle_is_edge(p: ZeroOnePolytope, a: int, b: int) -> bool:
    """Geometric adjacency of vertex masks a and b.

    They are no edge exactly when e_a - e_b is a nonnegative combination
    of the directions e_w - e_b over the other vertices w. Any support of
    such a combination lies in the sandwich: the vertices w other than a
    and b with a & b sube w sube a | b.

    - An empty sandwich is an edge.
    - A member w whose complement w xor a xor b is also a vertex gives a
      second split e_w + e_w' = e_a + e_b, so the pair is no edge.
    - Weigh each element of P = a - b by |Q| and each of Q = b - a by |P|,
      so that a and b both score |P||Q|. If every member scores below
      that, the pair is an edge. Add M = |P||Q| + 1 on a & b and -M
      outside a | b: a and b then score |P||Q| + M|a & b|, a member its
      score plus M|a & b|, and any other vertex, which misses a & b or
      leaves a | b, at most 2|P||Q| + M(|a & b| - 1), one below a's. So
      this functional is maximised over p exactly at a and b.
    - Every other pair goes to the LP over the members, in vertex order,
      and the coordinates of a xor b; the other rows read 0 = 0 there.
    """
    _check_pair(p, a, b)
    return _pair_is_edge(p, _element_masks(p), p.index[a], p.index[b])


def build_skeleton_oracle(p: ZeroOnePolytope) -> Skeleton:
    """Skeleton under the LP adjacency oracle, all vertex pairs. Refused
    before the first pair past ORACLE_VERTEX_CAP vertices."""
    nv = len(p.vertices)
    if nv > ORACLE_VERTEX_CAP:
        raise SizeLimitError(
            f"{nv} vertices exceeds the LP oracle cap of {ORACLE_VERTEX_CAP}"
        )
    masks = _element_masks(p)
    return Skeleton(tuple(
        tuple(j for j in range(i + 1, nv) if _pair_is_edge(p, masks, i, j))
        for i in range(nv)
    ), "oracle")


def _pair_is_edge(p: ZeroOnePolytope, masks: Sequence[int], i: int, j: int) -> bool:
    """oracle_is_edge for the vertices with indices i and j, given p's
    element masks. The sandwich is the AND of the masks over a & b and of
    their complements outside a | b, stopped at 0."""
    verts = p.vertices
    a, b = verts[i], verts[j]
    sand = ((1 << len(verts)) - 1) ^ (1 << i) ^ (1 << j)
    inside, outside = a & b, ((1 << p.n) - 1) & ~(a | b)
    while inside and sand:
        low = inside & -inside
        sand &= masks[low.bit_length() - 1]
        inside ^= low
    while outside and sand:
        low = outside & -outside
        sand &= ~masks[low.bit_length() - 1]
        outside ^= low
    index, diff, cols = p.index, a ^ b, []
    while sand:
        low = sand & -sand
        w = verts[low.bit_length() - 1]
        if w ^ diff in index:
            return False
        cols.append(w)
        sand ^= low
    only_a, only_b = a & ~b, b & ~a
    size_p, size_q = only_a.bit_count(), only_b.bit_count()
    for w in cols:
        score = size_q * (w & only_a).bit_count() + size_p * (w & only_b).bit_count()
        if score >= size_p * size_q:
            break
    else:
        return True
    coords = list(bits(diff))
    lhs = [
        [((w >> c) & 1) - ((b >> c) & 1) for w in cols]
        for c in coords
    ]
    rhs = [((a >> c) & 1) - ((b >> c) & 1) for c in coords]
    return not lp_feasible(lhs, rhs)
