"""Simple graphs over an ordered ground set, with subsets as bitmasks.

The vertex order of the GroundSet is the coordinate order of every vector
and bitmask in the package, so enumeration orders here are what make all
downstream artifacts (skeletons, facet files, DOT exports) deterministic.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Sequence

Label = Hashable


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GroundSet:
    """A fixed total order on distinct labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[Label]):
        self.labels: tuple[Label, ...] = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate labels in ground set")

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"label {label!r} not in ground set") from None

    def mask_of(self, labels: Iterable[Label]) -> int:
        m = 0
        for lab in labels:
            bit = 1 << self.index(lab)
            if m & bit:
                raise ValueError(f"label {lab!r} listed twice in one subset")
            m |= bit
        return m

    def labels_of(self, mask: int) -> tuple[Label, ...]:
        self.check_mask(mask)
        return tuple(self.labels[i] for i in bits(mask))

    def check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> len(self.labels):
            raise ValueError("subset mask outside the ground set")


class SimpleGraph:
    """Undirected simple graph; neighborhoods are bitmasks in ground order.
    Never mutated, so it keeps its stable sets once enumerated."""

    __slots__ = ("ground", "adj", "_stable")

    def __init__(self, ground: GroundSet, adj: Sequence[int]):
        n = len(ground)
        if len(adj) != n:
            raise ValueError("adjacency length does not match ground set")
        for v, nb in enumerate(adj):
            if nb >> n or nb < 0:
                raise ValueError("neighborhood outside the ground set")
            if (nb >> v) & 1:
                raise ValueError(f"self-loop at {ground.labels[v]!r}")
        for v, nb in enumerate(adj):
            for u in bits(nb):
                if not (adj[u] >> v) & 1:
                    raise ValueError("adjacency is not symmetric")
        self.ground = ground
        self.adj = tuple(adj)
        self._stable: Optional[tuple[int, ...]] = None  # see enumerate_stable_sets

    @classmethod
    def from_edges(
        cls, labels: Iterable[Label], edges: Iterable[tuple[Label, Label]]
    ) -> "SimpleGraph":
        ground = GroundSet(labels)
        adj = [0] * len(ground)
        for a, b in edges:
            i, j = ground.index(a), ground.index(b)
            if i == j:
                raise ValueError(f"self-loop at {a!r}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(ground, adj)

    @property
    def n(self) -> int:
        return len(self.ground)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            nb = self.adj[u] >> (u + 1)
            for k in bits(nb):
                out.append((u, u + 1 + k))
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count()})"


# Caps on a family's size; every consumer (the skeleton pair loop, facet
# enumeration) is at least quadratic in it. 2^15 stable sets keep rook6
# (13,327, the vertices of B6) and nc10 (16,796) buildable. Families not
# read off a graph stop at 1024, where `skeleton --oracle` takes 1.5 s on
# random 30-element subsets of 1..60, and `diameter`, by the sum tally, 1.0 s
# and 81 MB (a key per pair). The matroid axiom check takes about 23 ms on
# U(11, 5)'s 1024 sets (CPython 3.11, 2-core x86-64). Facet enumeration
# has its own default caps, which `facets --facet-*-cap` moves.
# `skeleton --oracle` stops at 2048 vertices: it takes 18.3 s on nc8 (1430)
# and 23.9 s on the 5x5 rook graph's 1546 stable sets, and its time grows
# as about the 2.4th power of the vertex count (nc7 to nc8), so about 45 s
# at the cap for either kind and some 6 minutes for nc9 (4862).
MAX_STABLE_SETS = 1 << 15
MAX_INDEPENDENTS = 1024
FACET_VERTEX_CAP = 1500
FACET_DIM_CAP = 28
ORACLE_VERTEX_CAP = 2048


def enumerate_stable_sets(g: SimpleGraph) -> list[int]:
    """All stable sets, sorted by cardinality then position order: a new
    list per call of the one enumeration that g keeps. Raises ValueError
    past MAX_STABLE_SETS sets."""
    if g._stable is None:
        g._stable = tuple(_level_order(g.adj))
    return list(g._stable)


def _level_order(adj: Sequence[int]) -> list[int]:
    """Stable sets level by level: each set of a level, in order, gains
    each allowed vertex above its largest member, in increasing order. A
    new set's positions are its parent's plus one larger one, so a sorted
    level makes a sorted next level, and each set is made once. The empty
    set, the n singletons and the non-adjacent pairs are stable, so a graph
    with more of them than the cap is refused before the first level, whose
    n sets each carry an n-bit mask; after that the count is checked after
    each set's extensions, so a graph past the cap costs about the cap to
    refuse."""
    n = len(adj)
    pairs = n * (n - 1) // 2 - sum(a.bit_count() for a in adj) // 2
    if 1 + n + pairs > MAX_STABLE_SETS:
        raise ValueError(f"graph has more than {MAX_STABLE_SETS} stable sets")
    out = [0]
    sets, allowed = [0], [(1 << len(adj)) - 1]  # vertices that may join each set
    while sets:
        grown, grown_allowed = [], []
        room = MAX_STABLE_SETS - len(out)
        for current, free in zip(sets, allowed):
            while free:
                low = free & -free
                free ^= low
                grown.append(current | low)
                grown_allowed.append(free & ~adj[low.bit_length() - 1])
            if len(grown) > room:
                raise ValueError(f"graph has more than {MAX_STABLE_SETS} stable sets")
        out += grown
        sets, allowed = grown, grown_allowed
    return out


def _subset_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (mask.bit_count(), tuple(bits(mask)))


def enumerate_max_cliques(g: SimpleGraph) -> list[int]:
    """All maximal cliques (Bron-Kerbosch with pivoting), deterministic order."""
    n = g.n
    if n == 0:
        return []
    adj = g.adj
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot: vertex of p|x with the most neighbors in p, lowest index wins
        pivot, best = -1, -1
        for u in bits(p | x):
            c = (adj[u] & p).bit_count()
            if c > best:
                pivot, best = u, c
        for v in bits(p & ~adj[pivot]):
            vb = 1 << v
            bk(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    bk(0, (1 << n) - 1, 0)
    out.sort(key=_subset_sort_key)
    return out


def reach(adj: Sequence[int], start: int, within: int) -> int:
    """Mask of the vertices reachable from the start mask by paths that
    stay inside the within mask (start must lie inside it)."""
    comp = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def connected_components(g: SimpleGraph, within: int) -> list[int]:
    """Vertex sets of the connected components of the subgraph induced on
    the within mask, as masks, by least member."""
    rest = within
    comps = []
    while rest:
        comp = reach(g.adj, rest & -rest, within)
        comps.append(comp)
        rest &= ~comp
    return comps


def is_union_of_complete_graphs(g: SimpleGraph) -> bool:
    """True iff every connected component induces a complete subgraph."""
    for comp in connected_components(g, (1 << g.n) - 1):
        for v in bits(comp):
            if g.adj[v] != comp & ~(1 << v):
                return False
    return True
