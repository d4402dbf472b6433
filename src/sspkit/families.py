"""Graph builders for the family catalog, comparability graphs of partial
orders, and set-partition encodings.

Pair-labeled families (bell, nn, nc) share the ground set of pairs (i, j)
with 1 <= i < j <= n in lexicographic order; the rook family uses all pairs
(i, j) with 1 <= i, j <= n.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb, factorial
from typing import Iterable

from .graphs import MAX_STABLE_SETS, GroundSet, Label, SimpleGraph, bits


def pair_ground(n: int) -> GroundSet:
    """Ground set of pairs (i, j), 1 <= i < j <= n, lexicographic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return GroundSet((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def build_empty_graph(n: int) -> SimpleGraph:
    """Edgeless graph on labels 1..n; its stable sets form the n-cube."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return SimpleGraph.from_edges(range(1, n + 1), [])


def build_complete_graph(n: int) -> SimpleGraph:
    if n < 0:
        raise ValueError("n must be nonnegative")
    labels = range(1, n + 1)
    return SimpleGraph.from_edges(labels, combinations(labels, 2))


def build_relation_graph(
    labels: Iterable[Label], pairs: Iterable[tuple[Label, Label]]
) -> SimpleGraph:
    """Symmetrize an arbitrary relation and drop loops. A loop's label is
    still looked up, so a loop on an unknown label is an error."""
    ground = GroundSet(labels)
    return SimpleGraph.from_edges(
        ground.labels,
        [(a, b) for a, b in pairs if ground.index(a) != ground.index(b)],
    )


def build_comparability_graph(
    labels: Iterable[Label], less_than: Iterable[tuple[Label, Label]]
) -> SimpleGraph:
    """Comparability graph of the partial order that an acyclic relation
    generates: the transitive closure is taken here (Warshall, on masks of
    the elements below each) and a cycle is refused. Edges join comparable
    elements, so stable sets are the antichains."""
    ground = GroundSet(labels)
    n = len(ground)
    below = [0] * n
    for a, b in less_than:
        below[ground.index(b)] |= 1 << ground.index(a)
    for k in range(n):
        for j in range(n):
            if (below[j] >> k) & 1:
                below[j] |= below[k]
    adj = list(below)
    for j, down in enumerate(below):
        if (down >> j) & 1:
            raise ValueError("relation contains a cycle")
        for i in bits(down):
            adj[i] |= 1 << j
    return SimpleGraph(ground, adj)


def containment_pairs(n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The order of pair_ground(n) by weak interval containment, as its
    pairs x < y: (i, j) < (k, l) iff k <= i, j <= l and the pairs differ."""
    labels = pair_ground(n).labels
    return [
        ((i, j), (k, l)) for k, l in labels for i, j in labels
        if k <= i and j <= l and (i, j) != (k, l)
    ]


def _clash_graph(labels: Iterable[tuple[int, int]], clash) -> SimpleGraph:
    """Graph on pair labels given in lexicographic order; (i, j) and a
    later (k, l), so i <= k, are adjacent iff clash(i, j, k, l)."""
    labels = tuple(labels)
    return SimpleGraph.from_edges(
        labels, [(x, y) for x, y in combinations(labels, 2) if clash(*x, *y)]
    )


def _share_an_end(i: int, j: int, k: int, l: int) -> bool:
    return i == k or j == l


def build_bell_graph(n: int) -> SimpleGraph:
    """Pairs clash iff they share the left entry or the right entry."""
    return _clash_graph(pair_ground(n).labels, _share_an_end)


def build_nonnesting_graph(n: int) -> SimpleGraph:
    """Pairs clash iff one interval weakly contains the other."""
    return _clash_graph(
        pair_ground(n).labels,
        lambda i, j, k, l: (k <= i and j <= l) or (i <= k and l <= j),
    )


def build_noncrossing_graph(n: int) -> SimpleGraph:
    """Pairs clash iff they share an entry or interleave strictly."""
    return _clash_graph(
        pair_ground(n).labels,
        lambda i, j, k, l: _share_an_end(i, j, k, l) or i < k < j < l,
    )


def build_rook_graph(n: int) -> SimpleGraph:
    """All cells (i, j) of an n x n board; edges join same row or column.

    Maximum stable sets are the permutation matrices."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return _clash_graph(cells, _share_an_end)


FAMILY_BUILDERS = {
    "empty": build_empty_graph,
    "complete": build_complete_graph,
    "bell": build_bell_graph,
    "nn": build_nonnesting_graph,
    "nc": build_noncrossing_graph,
    "rook": build_rook_graph,
}


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# family -> the number of stable sets of its graph on n, in closed form:
# subsets, the empty set and singletons, set partitions, nonnesting and
# noncrossing partitions, and partial permutation matrices.
STABLE_SET_COUNTS = {
    "empty": lambda n: 1 << n,
    "complete": lambda n: n + 1,
    "bell": bell_number,
    "nn": catalan_number,
    "nc": catalan_number,
    "rook": lambda n: sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1)),
}


def check_stable_set_count(family: str, n: int) -> None:
    """Refuse a catalog graph with more than MAX_STABLE_SETS stable sets
    before any of it is built. Every count grows with n, so the closed form
    is tried from 0 up and stops past the cap: a huge n costs no more than
    a small one."""
    if any(STABLE_SET_COUNTS[family](m) > MAX_STABLE_SETS for m in range(n + 1)):
        raise ValueError(f"graph has more than {MAX_STABLE_SETS} stable sets")


# family -> the number of edges of its graph on n, in closed form: two
# arcs share a left end or a right end in 2 C(n, 3) ways, and cross (or
# nest) in C(n, 4); a cell shares its row or column with 2 (n - 1) others.
EDGE_COUNTS = {
    "empty": lambda n: 0,
    "complete": lambda n: comb(n, 2),
    "bell": lambda n: 2 * comb(n, 3),
    "nn": lambda n: 2 * comb(n, 3) + comb(n, 4),
    "nc": lambda n: 2 * comb(n, 3) + comb(n, 4),
    "rook": lambda n: n * n * (n - 1),
}

# Only complete reaches this under the stable-set cap: its N + 1 stable
# sets pass for N < 32768, but its edges would take hours to write out.
MAX_EDGES = 1 << 20


def check_edge_count(family: str, n: int) -> None:
    """Refuse a catalog graph with more than MAX_EDGES edges before any of
    it is built. Run it after check_stable_set_count, which bounds n."""
    if n >= 0 and EDGE_COUNTS[family](n) > MAX_EDGES:
        raise ValueError(f"graph has more than {MAX_EDGES} edges")


class SetPartition(namedtuple("SetPartition", "n blocks")):
    """Partition of {1..n}; blocks are sorted tuples, ordered by least member.
    A tuple, so equal and hashed by value."""

    __slots__ = ()

    def __new__(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        seen: set[int] = set()
        for block in blocks:
            if not block or tuple(sorted(block)) != block:
                raise ValueError("blocks must be nonempty and sorted")
            for x in block:
                if not 1 <= x <= n or x in seen:
                    raise ValueError("blocks must partition 1..n")
                seen.add(x)
        if len(seen) != n:
            raise ValueError("blocks must cover 1..n")
        if list(blocks) != sorted(blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be ordered by least member")
        return super().__new__(cls, n, blocks)

    def arcs(self) -> list[tuple[int, int]]:
        """Consecutive-in-block arcs of the standard arc diagram."""
        out = []
        for block in self.blocks:
            out.extend(zip(block, block[1:]))
        out.sort()
        return out


def arcs_to_partition(n: int, a: int) -> SetPartition:
    """Partition of 1..n whose arc diagram has exactly the given arcs.

    The arc set must be stable in build_bell_graph(n): at most one arc out
    of each left endpoint and into each right endpoint. Arcs then chain
    each block from its least member upward.
    """
    succ = [0] * (n + 1)  # succ[i] = right end of the arc out of i, or 0
    right_ends = 0
    for i, j in pair_ground(n).labels_of(a):
        if succ[i] or (right_ends >> j) & 1:
            raise ValueError("arc set is not stable in the bell graph")
        succ[i] = j
        right_ends |= 1 << j
    blocks = []
    for x in range(1, n + 1):
        if not (right_ends >> x) & 1:
            block = [x]
            while succ[block[-1]]:
                block.append(succ[block[-1]])
            blocks.append(tuple(block))
    return SetPartition(n, tuple(blocks))


def _no_arc_pair(p: SetPartition, bad) -> bool:
    """True iff no two arcs (i, j) < (k, l) in sorted order satisfy bad."""
    arcs = p.arcs()
    return not any(
        bad(i, j, k, l)
        for pos, (i, j) in enumerate(arcs)
        for k, l in arcs[pos + 1 :]
    )


def is_noncrossing(p: SetPartition) -> bool:
    """No two arcs (i, j), (k, l) with i < k < j < l."""
    return _no_arc_pair(p, lambda i, j, k, l: i < k < j < l)


def is_nonnesting(p: SetPartition) -> bool:
    """No two arcs (i, j), (k, l) with i < k < l < j."""
    return _no_arc_pair(p, lambda i, j, k, l: i < k and l < j)
