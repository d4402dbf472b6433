"""0/1-polytopes from subset families and their combinatorial 1-skeletons.

The edge test here is purely combinatorial: vertices A and B are declared
adjacent when e_A + e_B splits as a sum of two family members in exactly
one way (namely {A, B} itself). For stable-set, restricted stable-set and
matroid families this provably coincides with geometric adjacency; the
geometry module provides the independent LP oracle used to cross-check
that claim, and for kind "raw" the test is just a uniqueness predicate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .bitsets import bits
from .graphs import GroundSet, SimpleGraph, enumerate_stable_sets

KINDS = ("stable-set", "birkhoff", "matroid-independence", "matroid-bases", "raw")


class ZeroOnePolytope:
    """conv{e_A : A in family} with the family kept as bitmasks.

    kind tags what the family is and drives validation:
      stable-set           all stable sets of the attached graph
      birkhoff             the maximum-cardinality stable sets of the graph
      matroid-independence downward-closed family (matroid checks live in
                           the matroids module)
      matroid-bases        equal-cardinality family
      raw                  any distinct subsets

    rank is the largest vertex cardinality, the paper's bound on the
    skeleton diameter.
    """

    __slots__ = ("ground", "vertices", "kind", "graph", "rank", "index")

    def __init__(
        self,
        ground: GroundSet,
        vertices: Sequence[int],
        kind: str,
        graph: Optional[SimpleGraph] = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown polytope kind {kind!r}")
        verts = tuple(vertices)
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        index: dict[int, int] = {}
        for i, v in enumerate(verts):
            ground.check_mask(v)
            if v in index:
                raise ValueError("vertices must be pairwise distinct")
            index[v] = i
        if kind in ("stable-set", "birkhoff"):
            if graph is None:
                raise ValueError(f"kind {kind!r} requires its graph")
            if graph.ground != ground:
                raise ValueError("graph ground set does not match")
            stabs = enumerate_stable_sets(graph)
            if kind == "stable-set":
                if sorted(verts) != sorted(stabs):
                    raise ValueError(
                        "stable-set kind requires exactly the stable sets of the graph"
                    )
            else:
                r = max(s.bit_count() for s in stabs)
                tops = [s for s in stabs if s.bit_count() == r]
                if sorted(verts) != sorted(tops):
                    raise ValueError(
                        "birkhoff kind requires exactly the maximum stable sets"
                    )
        elif kind == "matroid-independence":
            famset = set(verts)
            for v in verts:
                for b in bits(v):
                    if v ^ (1 << b) not in famset:
                        raise ValueError("independence family must be downward closed")
        elif kind == "matroid-bases":
            cards = {v.bit_count() for v in verts}
            if len(cards) != 1:
                raise ValueError("basis family must have equal cardinalities")
        self.ground = ground
        self.vertices = verts
        self.kind = kind
        self.graph = graph
        self.rank = max(v.bit_count() for v in verts)
        self.index = index

    @classmethod
    def from_graph(cls, g: SimpleGraph) -> "ZeroOnePolytope":
        """Stable-set polytope of g, vertices in enumeration order."""
        return cls(g.ground, enumerate_stable_sets(g), "stable-set", graph=g)

    @classmethod
    def raw(cls, ground: GroundSet, vertices: Sequence[int]) -> "ZeroOnePolytope":
        return cls(ground, vertices, "raw")

    @property
    def n(self) -> int:
        return len(self.ground)

    def vertex_vector(self, i: int) -> tuple[int, ...]:
        v = self.vertices[i]
        return tuple((v >> k) & 1 for k in range(self.n))

    def __repr__(self) -> str:
        return (
            f"ZeroOnePolytope(kind={self.kind!r}, n={self.n}, "
            f"vertices={len(self.vertices)})"
        )


def birkhoff_restrict(g: SimpleGraph) -> ZeroOnePolytope:
    """Restriction of the stable-set polytope of g to its top cardinality."""
    stabs = enumerate_stable_sets(g)
    r = max(s.bit_count() for s in stabs)
    tops = [s for s in stabs if s.bit_count() == r]
    return ZeroOnePolytope(g.ground, tops, "birkhoff", graph=g)


def _split_pairs(
    index: dict[int, int], va: int, vb: int, limit: int = 0
) -> list[tuple[int, int]]:
    """Unordered index pairs {C, D} in the family with e_C + e_D = e_A + e_B.

    Any such pair satisfies C cap D = A cap B and C cup D = A cup B, so it
    is enough to walk the subsets of the symmetric difference. Requiring
    the lowest difference bit to lie in C visits each pair exactly once.
    """
    inter = va & vb
    diff = va ^ vb
    low = diff & -diff
    rest = diff ^ low
    out: list[tuple[int, int]] = []
    s = rest
    while True:
        c = inter | low | s
        d = inter | (rest ^ s)
        ci = index.get(c)
        if ci is not None:
            di = index.get(d)
            if di is not None:
                out.append((ci, di) if ci < di else (di, ci))
                if limit and len(out) >= limit:
                    return out
        if s == 0:
            return out
        s = (s - 1) & rest


def decompositions(p: ZeroOnePolytope, a: int, b: int) -> list[tuple[int, int]]:
    """All unordered vertex-index pairs whose indicator vectors sum to
    e_A + e_B; always contains {a, b} itself."""
    _check_pair(p, a, b)
    out = _split_pairs(p.index, p.vertices[a], p.vertices[b])
    out.sort()
    return out


def is_edge_E(p: ZeroOnePolytope, a: int, b: int) -> bool:
    """True iff {a, b} is the only decomposition of e_A + e_B.

    For kind "raw" this is only the uniqueness predicate; it need not agree
    with geometric adjacency there.
    """
    _check_pair(p, a, b)
    return len(_split_pairs(p.index, p.vertices[a], p.vertices[b], limit=2)) == 1


def _check_pair(p: ZeroOnePolytope, a: int, b: int) -> None:
    if not (0 <= a < len(p.vertices) and 0 <= b < len(p.vertices)):
        raise ValueError("vertex index out of range")
    if a == b:
        raise ValueError("edge test needs two distinct vertices")


@dataclass(frozen=True)
class Skeleton:
    """Edge list of a polytope graph, with the method that produced it."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    provenance: str

    @classmethod
    def make(
        cls, vertex_count: int, edges: Iterable[tuple[int, int]], provenance: str
    ) -> "Skeleton":
        if provenance not in ("condition-E", "oracle"):
            raise ValueError(f"unknown provenance {provenance!r}")
        norm = sorted({(i, j) if i < j else (j, i) for i, j in edges})
        for i, j in norm:
            if i == j or not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise ValueError("bad edge")
        return cls(vertex_count, tuple(norm), provenance)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def build_skeleton_E(p: ZeroOnePolytope) -> Skeleton:
    """Skeleton under the unique-decomposition edge test, all vertex pairs."""
    nv = len(p.vertices)
    index, verts = p.index, p.vertices
    edges = []
    for a in range(nv):
        va = verts[a]
        for b in range(a + 1, nv):
            if len(_split_pairs(index, va, verts[b], limit=2)) == 1:
                edges.append((a, b))
    return Skeleton.make(nv, edges, "condition-E")


def diameter(s: Skeleton) -> Optional[int]:
    """Graph diameter by repeated BFS; None when disconnected."""
    if s.vertex_count == 0:
        return None
    adj = s.adjacency()
    best = 0
    for start in range(s.vertex_count):
        dist = [-1] * s.vertex_count
        dist[start] = 0
        q = deque([start])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        far = max(dist)
        if min(dist) < 0:
            return None
        best = max(best, far)
    return best


def quasimatroid_exchange(
    family: Sequence[int], a: int, b: int, i: int
) -> tuple[int, int]:
    """For an equal-cardinality family, a pair (E, F) with i in E sube a - b,
    F sube b - a, |E| = |F|, (a - E) | F in the family, and e_a + e_(a-E|F)
    admitting no other two-member split.

    Walks alternative splits of e_a + e_b, always recursing toward the side
    that avoids i; each step grows the overlap with a, so it terminates.
    """
    fam = list(family)
    cards = {v.bit_count() for v in fam}
    if len(cards) > 1:
        raise ValueError("family members must have equal cardinality")
    index = {v: k for k, v in enumerate(fam)}
    if len(index) != len(fam):
        raise ValueError("family members must be distinct")
    if a not in index or b not in index:
        raise ValueError("a and b must belong to the family")
    if a == b:
        raise ValueError("a and b must differ")
    ibit = 1 << i
    if not (a & ~b) & ibit:
        raise ValueError("i must lie in a minus b")

    cur = b
    while True:
        alt = None
        for ci, di in _split_pairs(index, a, cur):
            vc, vd = fam[ci], fam[di]
            if (vc == a and vd == cur) or (vc == cur and vd == a):
                continue
            alt = (vc, vd)
            break
        if alt is None:
            e, f = a & ~cur, cur & ~a
            return e, f
        vc, vd = alt
        cur = vc if not (vc & ibit) else vd


def bp_path(p: ZeroOnePolytope, a: int, b: int) -> list[int]:
    """Walk from a to b along edges of the birkhoff-kind polytope p.

    Every hop swaps some E sube current - b for an equal-size F sube b,
    so the overlap with b grows and the walk has at most rank hops.
    """
    if p.kind != "birkhoff":
        raise ValueError("bp_path needs a birkhoff-kind polytope")
    if a not in p.index or b not in p.index:
        raise ValueError("endpoints must be maximum stable sets of the graph")
    path = [a]
    cur = a
    while cur != b:
        i = ((cur & ~b) & -(cur & ~b)).bit_length() - 1
        e, f = quasimatroid_exchange(p.vertices, cur, b, i)
        cur = (cur & ~e) | f
        path.append(cur)
    return path


def base_change(p: ZeroOnePolytope, a: int, b: int) -> int:
    """A stable set C adjacent to a in the stable-set polytope p with
    a cap b sube C sube a cup b and C meeting b - a.

    Follows the splitting argument: either some split member strictly
    contains a (then a plus one new element works), or some member meets
    both differences and we restart from it with a larger overlap.
    """
    if a not in p.index or b not in p.index:
        raise ValueError("endpoints must be stable sets of the graph")
    if a == b or not (b & ~a):
        raise ValueError("base_change needs b to contain something outside a")
    index, verts = p.index, p.vertices
    cur = b
    while True:
        pairs = _split_pairs(index, a, cur)
        members: list[int] = []
        for ci, di in pairs:
            vc, vd = verts[ci], verts[di]
            if (vc == a and vd == cur) or (vc == cur and vd == a):
                continue
            members.append(vc)
            members.append(vd)
        if not members:
            return cur  # unique split: a and cur are adjacent
        for m in members:
            if m & a == a:  # m strictly contains a
                extra = m & ~a
                return a | (extra & -extra)
        for m in members:
            if (m & (a & ~cur)) and (m & (cur & ~a)):
                cur = m
                break
        else:
            raise AssertionError("splitting argument exhausted; family corrupt")


def ssp_path(p: ZeroOnePolytope, a: int, b: int) -> list[int]:
    """Walk from a to b along edges of the stable-set polytope p, at most
    rank hops.

    Small endpoints route down through the empty set and back up; otherwise
    repeated base_change grows the overlap with b until b is contained,
    after which surplus elements leave one at a time.
    """
    if p.kind != "stable-set":
        raise ValueError("ssp_path needs a stable-set-kind polytope")
    if a not in p.index or b not in p.index:
        raise ValueError("endpoints must be stable sets of the graph")
    if a == b:
        return [a]
    r = p.rank
    path = [a]
    cur = a
    if a.bit_count() + b.bit_count() <= r:
        while cur:
            cur ^= cur & -cur
            path.append(cur)
        up = b
        while up:
            low = up & -up
            cur |= low
            up ^= low
            path.append(cur)
        return path
    while b & ~cur:
        cur = base_change(p, cur, b)
        path.append(cur)
    while cur != b:
        extra = cur & ~b
        cur ^= extra & -extra
        path.append(cur)
    return path


def is_edge_walk(p: ZeroOnePolytope, walk: Sequence[int]) -> bool:
    """True iff every hop of walk joins two distinct vertices of p that
    pass the unique-sum edge test."""
    return all(
        u != v and is_edge_E(p, p.index[u], p.index[v])
        for u, v in zip(walk, walk[1:])
    )
