"""Geometric side of the toolkit: LP adjacency oracle and facet machinery.

Vertices u, v of a polytope P fail to be adjacent exactly when u - v is a
nonnegative combination of the directions (w - v) over the other vertices
w, so adjacency reduces to exact LP infeasibility. Facets come from the
double description method run on the homogenization's dual cone, entirely
in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .bitsets import bits
from .graphs import SimpleGraph, enumerate_max_cliques
from .linalg import (
    cone_rays,
    independent_rows,
    integer_rows,
    lp_feasible,
    primitive,
)
from .skeleton import Skeleton, ZeroOnePolytope, _split_pairs


class SizeLimitError(ValueError):
    """Facet enumeration refused: input exceeds the configured caps."""


@dataclass(frozen=True)
class Inequality:
    """c . x <= rhs over the integers. Nonnegativity of x_v is stored as
    -x_v <= 0."""

    coeffs: tuple[int, ...]
    rhs: int

    def evaluate(self, mask: int) -> int:
        return sum(self.coeffs[i] for i in bits(mask))

    def holds(self, mask: int) -> bool:
        return self.evaluate(mask) <= self.rhs

    def tight(self, mask: int) -> bool:
        return self.evaluate(mask) == self.rhs


def make_inequality(coeffs: Sequence, rhs) -> Inequality:
    """Rational coefficients times the lcm of their denominators."""
    *ints, rhs = integer_rows([[*coeffs, rhs]])[0]
    return Inequality(tuple(ints), rhs)


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


def normalized_int_form(q: Inequality) -> tuple[tuple[int, ...], int]:
    """Divide by the positive gcd to primitive integers (gcd 1)."""
    *coeffs, rhs = primitive((*q.coeffs, q.rhs))
    return tuple(coeffs), rhs


def oracle_is_edge(p: ZeroOnePolytope, a: int, b: int) -> bool:
    """Geometric adjacency of vertices a and b: a checked witness, else LP.

    Non-adjacency is witnessed by a nonnegative solution of
    sum_k g_k (w_k - v_b) = v_a - v_b over the other vertices w_k; any
    such solution is automatically nonzero because v_a != v_b.

    A second split e_C + e_D = e_A + e_B is such a solution (g_C = g_D = 1),
    so when the subset walk finds one, the pair is re-checked here and
    settled without an LP. Every other pair, every edge included, goes to
    the LP.

    The LP's columns are cut to the vertices sandwiched between the
    intersection and the union of a and b, which any support of a witness
    must respect, and its rows to the coordinates where a and b differ;
    the other rows read 0 = 0 on those columns.
    """
    nv = len(p.vertices)
    if not (0 <= a < nv and 0 <= b < nv):
        raise ValueError("vertex index out of range")
    if a == b:
        raise ValueError("edge test needs two distinct vertices")
    va, vb = p.vertices[a], p.vertices[b]
    inter, union = va & vb, va | vb
    for c, d in _split_pairs(p.index, va, vb, limit=2):
        vc, vd = p.vertices[c], p.vertices[d]
        if {c, d} != {a, b} and vc & vd == inter and vc | vd == union:
            return False
    cols = [
        w
        for k, w in enumerate(p.vertices)
        if k != a and k != b and w & inter == inter and not (w & ~union)
    ]
    coords = list(bits(va ^ vb))
    lhs = [
        [((w >> c) & 1) - ((vb >> c) & 1) for w in cols]
        for c in coords
    ]
    rhs = [((va >> c) & 1) - ((vb >> c) & 1) for c in coords]
    return not lp_feasible(lhs, rhs)


def build_skeleton_oracle(p: ZeroOnePolytope) -> Skeleton:
    """Skeleton under the LP adjacency oracle, all vertex pairs."""
    nv = len(p.vertices)
    edges = [
        (a, b)
        for a in range(nv)
        for b in range(a + 1, nv)
        if oracle_is_edge(p, a, b)
    ]
    return Skeleton.make(nv, edges, "oracle")


def is_valid(p: ZeroOnePolytope, q: Inequality) -> bool:
    """True iff every vertex of p satisfies q."""
    if len(q.coeffs) != p.n:
        raise ValueError("inequality dimension does not match the polytope")
    return all(q.holds(v) for v in p.vertices)


def polytope_dim(p: ZeroOnePolytope) -> int:
    return len(independent_rows([_lifted(v, p.n) for v in p.vertices])) - 1


def is_facet(p: ZeroOnePolytope, q: Inequality) -> bool:
    """True iff the face q cuts out has dimension dim(p) - 1.

    One pass over the lifted vertices (1, v), tight ones first: the rows
    chosen among the tight vertices span the face, all chosen rows span
    the polytope, and the face is a facet iff exactly one row is chosen
    outside it. q must be valid for p; calling with an invalid inequality
    is a contract violation.
    """
    if not is_valid(p, q):
        raise ValueError("is_facet requires a valid inequality")
    tight = [_lifted(v, p.n) for v in p.vertices if q.tight(v)]
    rest = [_lifted(v, p.n) for v in p.vertices if not q.tight(v)]
    chosen = independent_rows(tight + rest)
    return sum(i >= len(tight) for i in chosen) == 1


def _lifted(v: int, n: int) -> tuple[int, ...]:
    """The homogenized vertex row (1, e_v)."""
    return (1, *((v >> k) & 1 for k in range(n)))


def enumerate_facets(
    p: ZeroOnePolytope, vertex_cap: int = 150, dim_cap: int = 16
) -> list[Inequality]:
    """The complete irredundant facet list of a full-dimensional polytope.

    Double description on the dual cone of the homogenization: rays of
    {y : y . (1, w) >= 0 for all vertices w} are exactly the facets. All
    ray arithmetic stays in primitive integer vectors. Inputs beyond the
    caps are refused rather than attempted.
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
    rows = [_lifted(v, n) for v in p.vertices]
    d = n + 1
    chosen = independent_rows(rows)
    if len(chosen) != d:
        raise ValueError(
            "facet enumeration requires a full-dimensional polytope"
        )
    if n == 0:
        return []

    picked = set(chosen)
    order = chosen + [i for i in range(nv) if i not in picked]
    rays = cone_rays([rows[i] for i in chosen])
    full = (1 << d) - 1
    tight = [full ^ (1 << j) for j in range(d)]

    for t in range(d, nv):
        row = rows[order[t]]
        vals = [_dot(row, r) for r in rays]
        minus = [k for k, v in enumerate(vals) if v < 0]
        if not minus:
            for k, v in enumerate(vals):
                if v == 0:
                    tight[k] |= 1 << t
            continue
        plus = [k for k, v in enumerate(vals) if v > 0]
        keep = [k for k, v in enumerate(vals) if v >= 0]
        new_rays: list[tuple[int, ...]] = []
        new_tight: list[int] = []
        for kp in plus:
            tp = tight[kp]
            vp = vals[kp]
            for km in minus:
                z = tp & tight[km]
                if not _adjacent(z, tight, kp, km):
                    continue
                vm = vals[km]
                vec = tuple(
                    vp * rm - vm * rp for rp, rm in zip(rays[kp], rays[km])
                )
                new_rays.append(primitive(vec))
                new_tight.append(z | (1 << t))
        rays = [rays[k] for k in keep] + new_rays
        tight = [
            tight[k] | (1 << t) if vals[k] == 0 else tight[k] for k in keep
        ] + new_tight

    out = []
    for ray in rays:
        out.append(Inequality(tuple(-c for c in ray[1:]), ray[0]))
    out.sort(key=lambda q: (q.coeffs, q.rhs))
    return out


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _adjacent(z: int, tight: list[int], kp: int, km: int) -> bool:
    for k, ts in enumerate(tight):
        if k != kp and k != km and z & ts == z:
            return False
    return True


def classify_inequality(
    q: Inequality, graph: Optional[SimpleGraph] = None
) -> str:
    """One of "nonnegativity", "clique", "other" (normalized form decides)."""
    coeffs, rhs = normalized_int_form(q)
    if rhs == 0 and sum(c != 0 for c in coeffs) == 1 and min(coeffs) == -1:
        return "nonnegativity"
    if rhs == 1 and all(c in (0, 1) for c in coeffs) and any(coeffs):
        support = [i for i, c in enumerate(coeffs) if c == 1]
        if graph is None:
            return "clique"
        if all(
            graph.has_edge(u, v)
            for x, u in enumerate(support)
            for v in support[x + 1 :]
        ):
            return "clique"
    return "other"
