"""Geometric side of the toolkit: LP adjacency oracle and facet machinery.

Vertices u, v of a polytope P fail to be adjacent exactly when u - v is a
nonnegative combination of the directions (w - v) over the other vertices
w, so adjacency reduces to exact LP infeasibility. Most pairs never reach
the LP: a non-edge shows a second split of u + v, and an edge a linear
functional maximised over P exactly at u and v. Facets come from the
double description method run on the homogenization's dual cone, entirely
in integer arithmetic; _lifted_basis answers each rank question.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Sequence

from .graphs import (
    FACET_DIM_CAP, FACET_VERTEX_CAP, ORACLE_VERTEX_CAP, SimpleGraph, bits,
    enumerate_max_cliques,
)
from .linalg import (
    cone_rays, independent_mod2, independent_rows, lp_feasible, primitive,
)
from .skeleton import Skeleton, ZeroOnePolytope, _check_pair, _element_masks


class SizeLimitError(ValueError):
    """Facet enumeration or the LP oracle refused: input exceeds a cap."""


class Inequality(NamedTuple):
    """c . x <= rhs over the integers. Nonnegativity of x_v is stored as
    -x_v <= 0."""

    coeffs: tuple[int, ...]
    rhs: int

    def evaluate(self, mask: int) -> int:
        coeffs, total = self.coeffs, 0
        while mask:
            low = mask & -mask
            total += coeffs[low.bit_length() - 1]
            mask ^= low
        return total


def nonnegativity(n: int, v: int) -> Inequality:
    if not 0 <= v < n:
        raise ValueError("coordinate out of range")
    coeffs = [0] * n
    coeffs[v] = -1
    return Inequality(tuple(coeffs), 0)


def clique_inequality(n: int, clique: int) -> Inequality:
    """sum of x_v over the clique <= 1."""
    if clique <= 0 or clique >> n:
        raise ValueError("clique mask must be a nonempty subset of the ground set")
    coeffs = [0] * n
    for v in bits(clique):
        coeffs[v] = 1
    return Inequality(tuple(coeffs), 1)


def always_facet_inequalities(g: SimpleGraph) -> list[Inequality]:
    """Nonnegativity plus one clique inequality per maximal clique of g."""
    n = g.n
    out = [nonnegativity(n, v) for v in range(n)]
    out.extend(clique_inequality(n, c) for c in enumerate_max_cliques(g))
    return out


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


def is_facet(p: ZeroOnePolytope, q: Inequality) -> bool:
    """True iff the face q cuts out has dimension dim(p) - 1.

    One evaluation per vertex sorts the lifted rows (1, v) into tight ones
    and the rest. Once the rest is not empty, (-rhs, c) is not 0, and it is
    orthogonal to every tight row but not to all of p's rows, so the tight
    rows have rank at most one below p's. The face is a facet iff they
    reach it; _lifted_basis gives both ranks. A coefficient or right-hand
    side that is not a plain int raises TypeError, and an invalid q
    ValueError.
    """
    if len(q.coeffs) != p.n:
        raise ValueError("inequality dimension does not match the polytope")
    for x in (*q.coeffs, q.rhs):
        if type(x) is not int:
            raise TypeError(f"inequality entries must be ints, got {x!r}")
    tight, rest = [], []
    for v in p.vertices:
        value = q.evaluate(v)
        if value > q.rhs:
            raise ValueError("is_facet requires a valid inequality")
        (tight if value == q.rhs else rest).append(v)
    if not rest:
        return False
    rank = len(_lifted_basis(p.vertices, p.n, p.n + 1))
    return len(_lifted_basis(tight, p.n, rank - 1)) == rank - 1


def _lifted_basis(verts: Sequence[int], n: int, count: int) -> list[int]:
    """Indices of count lifted rows (1, e_v) of verts independent over Q,
    or of a basis of them all when their rank is lower: the first rows
    independent mod 2 when count are, else the first basis found exactly."""
    chosen = independent_mod2((v << 1 | 1 for v in verts), count)
    if len(chosen) < count:
        chosen = independent_rows([_lifted(v, n) for v in verts])
    return chosen[:count]


def _lifted(v: int, n: int) -> tuple[int, ...]:
    """The homogenized vertex row (1, e_v)."""
    return (1, *((v >> k) & 1 for k in range(n)))


def enumerate_facets(
    p: ZeroOnePolytope, vertex_cap: int = FACET_VERTEX_CAP, dim_cap: int = FACET_DIM_CAP
) -> list[Inequality]:
    """The complete irredundant facet list of a full-dimensional polytope.

    Double description on the dual cone of the homogenization: rays of
    {y : y . (1, w) >= 0 for all vertices w} are exactly the facets. All
    ray arithmetic stays in primitive integer vectors, so facets come out
    primitive. Inputs beyond the caps are refused rather than attempted.

    The lifted rows are sorted lexicographically ascending before the start
    basis is chosen, so the basis and every later insertion follow lexmin
    order, cdd's default; insertion order can change the cost of double
    description by orders of magnitude (Avis, Bremner and Seidel, 1997).
    The start basis is the first d rows _lifted_basis finds; the facets do
    not depend on it.

    A positive and a negative ray combine iff no third ray's zero set (the
    rows it is tight on) contains their common zero set z. Adjacent rays
    span a 2-face, so z holds at least d - 2 rows (Fukuda and Prodon,
    1996); the last refuting zero set is tried first. The pair's own rays
    are skipped by mask value: the cone starts from d independent rows, so
    it is pointed, and its distinct extreme rays have distinct zero sets.
    """
    n = p.n
    nv = len(p.vertices)
    if nv > vertex_cap:
        raise SizeLimitError(
            f"{nv} vertices exceeds the facet enumeration cap of {vertex_cap}"
        )
    if n > dim_cap:
        raise SizeLimitError(
            f"ambient dimension {n} exceeds the facet enumeration cap of {dim_cap}"
        )
    # ascending rows (1, e_v): v's bit string read from bit 0 up
    verts = sorted(p.vertices, key=lambda v: format(v, f"0{n}b")[::-1])
    d = n + 1
    chosen = _lifted_basis(verts, n, d)
    if len(chosen) != d:
        raise ValueError("facet enumeration requires a full-dimensional polytope")
    if n == 0:
        return []

    picked = set(chosen)
    order = chosen + [i for i in range(nv) if i not in picked]
    rays = cone_rays([_lifted(verts[i], n) for i in chosen])
    tight = [((1 << d) - 1) ^ (1 << j) for j in range(d)]  # zero sets

    for t in range(d, nv):
        # r . (1, e_v); v is not empty, as the first row starts the basis
        get = itemgetter(0, *(k + 1 for k in bits(verts[order[t]])))
        vals = [sum(get(r)) for r in rays]
        bit = 1 << t
        plus = [k for k, v in enumerate(vals) if v > 0]
        minus = [k for k, v in enumerate(vals) if v < 0]
        masks = sorted(tight, key=int.bit_count, reverse=True)
        witness = masks[0]
        new_rays, new_tight = [], []
        for kp in plus:
            tp, rp, vp = tight[kp], rays[kp], vals[kp]
            for km in minus:
                tm = tight[km]
                z = tp & tm
                if z.bit_count() < d - 2:
                    continue
                if z & witness != z or witness == tp or witness == tm:
                    for ts in masks:
                        if z & ts == z and ts != tp and ts != tm:
                            witness = ts
                            break
                    else:
                        vm = vals[km]
                        new_rays.append(
                            primitive([vp * b - vm * a for a, b in zip(rp, rays[km])])
                        )
                        new_tight.append(z | bit)
        keep = [k for k, v in enumerate(vals) if v >= 0]
        rays = [rays[k] for k in keep] + new_rays
        tight = [tight[k] | bit if vals[k] == 0 else tight[k] for k in keep]
        tight += new_tight

    return sorted(Inequality(tuple(-c for c in ray[1:]), ray[0]) for ray in rays)


def classify_inequality(q: Inequality) -> str:
    """One of "nonnegativity", "clique", "other", read off the primitive
    row of q: -x_v <= 0, a 0/1 row with right-hand side 1, or neither.

    No graph is needed: on a stable-set polytope, two non-adjacent members
    of a valid 0/1 row's support would be a stable set at which it reads 2.
    The rule is exact on every full-dimensional polytope enumerate_facets
    accepts; birkhoff and matroid-bases polytopes are not full-dimensional.
    """
    *coeffs, rhs = primitive((*q.coeffs, q.rhs))
    if rhs == 0 and sum(c != 0 for c in coeffs) == 1 and min(coeffs) == -1:
        return "nonnegativity"
    if rhs == 1 and all(c in (0, 1) for c in coeffs) and any(coeffs):
        return "clique"
    return "other"
