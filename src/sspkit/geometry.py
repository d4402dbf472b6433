"""Facet machinery: integer inequalities, facet enumeration and facet
certification.

Facets come from the double description method run on the
homogenization's dual cone, entirely in integer arithmetic;
_lifted_basis answers each rank question, and a polytope keeps the rank
of its own lifted rows once is_facet has found it. The LP adjacency
oracle is in the oracle module, so a facet call does not load it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Sequence

from .graphs import (
    FACET_DIM_CAP, FACET_VERTEX_CAP, SimpleGraph, SizeLimitError, ZeroOnePolytope,
    bits, enumerate_max_cliques,
)
from .linalg import cone_rays, independent_mod2, independent_rows, primitive


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


def is_facet(p: ZeroOnePolytope, q: Inequality) -> bool:
    """True iff the face q cuts out has dimension dim(p) - 1.

    One evaluation per vertex sorts the lifted rows (1, v) into tight ones
    and the rest. Once the rest is not empty, (-rhs, c) is not 0, and it is
    orthogonal to every tight row but not to all of p's rows, so the tight
    rows have rank at most one below p's. The face is a facet iff they
    reach it; _lifted_basis gives both ranks, and p keeps its own once
    found. A coefficient or right-hand side that is not a plain int raises
    TypeError, and an invalid q ValueError.
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
    if p._lifted_rank is None:
        p._lifted_rank = len(_lifted_basis(p.vertices, p.n, p.n + 1))
    rank = p._lifted_rank
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
