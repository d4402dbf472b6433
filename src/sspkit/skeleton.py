"""Condition E's kernels: the combinatorial 1-skeleton of a 0/1-polytope,
its diameter, and the walks and exchange steps that follow its edges.

The edge test here is purely combinatorial: vertices A and B are declared
adjacent when e_A + e_B splits as a sum of two family members in exactly
one way (namely {A, B} itself). For stable-set, restricted stable-set and
matroid families this provably coincides with geometric adjacency; the
oracle module provides the independent LP oracle used to cross-check
that claim, and for kind "raw" the test is just a uniqueness predicate.
For the two graph kinds the same test is a connectivity check on the
graph (see build_skeleton_E) over the polytope's element masks, which the
oracle reads too; the sum tally and the split search do not. The model
(ZeroOnePolytope, Skeleton) lives in graphs, which every call loads; this
module is loaded only by the calls that run a kernel.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from typing import Optional, Sequence

from .graphs import (
    Skeleton,
    ZeroOnePolytope,
    _check_pair,
    _check_vertices,
    _element_masks,
    bits,
    connected_components,
)


def _other_split(p: ZeroOnePolytope, va: int, vb: int) -> Optional[tuple[int, int]]:
    """Masks (C, D) of two members with e_C + e_D = e_A + e_B other than
    {A, B}, or None when {A, B} is the only such split. Needs A != B.

    Any such C has A & B sube C sube A | B and D = C xor (A xor B); one
    scan of the members finds them in vertex order.
    """
    index = p.index
    inter, diff = va & vb, va ^ vb
    for c in p.vertices:
        if c & ~diff == inter and c != va and c != vb and c ^ diff in index:
            return c, c ^ diff
    return None


def is_edge_E(p: ZeroOnePolytope, a: int, b: int) -> bool:
    """True iff {a, b} is the only decomposition of e_a + e_b, for vertex
    masks a and b of p.

    For kind "raw" this is only the uniqueness predicate; it need not agree
    with geometric adjacency there.
    """
    _check_pair(p, a, b)
    return _other_split(p, a, b) is None


def unique_sum_skeleton(p: ZeroOnePolytope) -> Skeleton:
    """Skeleton under the unique-decomposition edge test, all vertex pairs.

    e_A + e_B is 2 on A & B and 1 on the rest of A | B, so it fixes and is
    fixed by the int key (A & B) << n | A | B; a pair is an edge iff its
    key occurs once in one tally over all pairs."""
    verts, n = p.vertices, p.n
    keys = [[(va & vb) << n | va | vb for vb in verts[a + 1 :]]
            for a, va in enumerate(verts)]
    tally = Counter(chain.from_iterable(keys))
    return Skeleton(tuple(
        tuple(b for b, key in enumerate(row, a + 1) if tally[key] == 1)
        for a, row in enumerate(keys)
    ), "condition-E")


def build_skeleton_E(p: ZeroOnePolytope) -> Skeleton:
    """Skeleton under condition E (the unique-sum edge test).

    Matroid and raw kinds count the sums of all pairs
    (unique_sum_skeleton). For the stable-set and birkhoff kinds the test
    reduces to "G[A xor B] is connected" (Chvatal 1975): A - B and B - A
    are stable and A & B has no neighbour in A | B, so a split
    e_C + e_D = e_A + e_B is exactly a 2-colouring of G[A xor B], and
    there are 2^(k-1) unordered ones for k components. For
    top-cardinality sets every component is balanced (else one side
    would give a larger stable set), so each colouring keeps C and D in
    the family, and again the split is unique iff k = 1.
    """
    if p.kind not in ("stable-set", "birkhoff"):
        return unique_sum_skeleton(p)
    return Skeleton(_connected_rows(p), "condition-E")


# Pair bits per ground element in one pass of _connected_rows. Rows of
# vertex pairs go in blocks of about this many bits, so memory stays a few
# kilobytes per element even at the stable-set cap, where the full square
# of pairs would take 2^30 bits per element.
_BLOCK_BITS = 1 << 16
_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _connected_rows(p: ZeroOnePolytope) -> tuple[tuple[int, ...], ...]:
    """Per vertex index a of p, the indices b > a, ascending, with
    G[verts[a] xor verts[b]] connected, for p's graph G.

    Bit-sliced: for a block of rows a and the columns b >= the block's
    first row, D[k] holds one bit per pair (a, b), set iff ground element
    k lies in verts[a] xor verts[b]. Each pair is seeded at its lowest
    difference element, and R[k] |= D[k] & OR(R[j] for j adjacent to k)
    runs until nothing changes, a flood fill inside every pair's
    difference at once. A pair is connected iff R[k] == D[k] for every k.
    Rows are padded to whole bytes, so D[k] is a row pattern (all ones or
    all zeros, by k in verts[a]) xor the column mask of k repeated per row;
    the padding columns are never read.
    """
    verts, cols = p.vertices, _element_masks(p)
    nv, n = len(verts), p.n
    nbrs = [list(bits(m)) for m in p.graph.adj]
    index = tuple(range(nv))
    out: list[tuple[int, ...]] = []
    r0 = 0
    while r0 < nv:
        nbytes = (nv - r0 + 7) >> 3
        width = nbytes << 3
        rows = min(nv - r0, max(1, _BLOCK_BITS // width))
        ones, zero = b"\xff" * nbytes, bytes(nbytes)
        block = verts[r0 : r0 + rows]
        diff = []
        reached = []
        seen = 0
        for k in range(n):
            row = b"".join([ones if v >> k & 1 else zero for v in block])
            col = (cols[k] >> r0).to_bytes(nbytes, "little") * rows
            d = int.from_bytes(row, "little") ^ int.from_bytes(col, "little")
            diff.append(d)
            reached.append(d & ~seen)
            seen |= d
        changed = True
        while changed:
            changed = False
            for k in range(n):
                d, r = diff[k], reached[k]
                if r == d:
                    continue
                acc = 0
                for j in nbrs[k]:
                    acc |= reached[j]
                new = r | (acc & d)
                if new != r:
                    reached[k] = new
                    changed = True
        bad = 0
        for d, r in zip(diff, reached):
            bad |= d ^ r
        # Bit j of the block as byte j, 1 if connected: row i holds column
        # b at i * width + b - r0, so its slice past the diagonal selects
        # the columns b > a that are edges, as the shared ints of index.
        good = format(((1 << rows * width) - 1) ^ bad, "b")[::-1].encode()
        good = good.translate(_SELECTORS)
        for i in range(rows):
            a = r0 + i
            sel = good[i * width + i + 1 : i * width + nv - r0]
            out.append(tuple(compress(index[a + 1 :], sel)))
        r0 += rows
    return tuple(out)


def diameter(s: Skeleton) -> Optional[int]:
    """Graph diameter, None when disconnected.

    Every source at once: reached[v] is the bitmask of vertices within d
    hops of v, and one round sets it to reached[v] | OR(reached[u] for u
    adjacent to v) from the previous round's masks. The diameter is the
    round at which every mask is full; a round that changes nothing
    before then means the graph is disconnected. Each vertex's neighbour
    list is its row with its lower neighbours appended.
    """
    rows = s.rows
    nv = len(rows)
    if nv == 0:
        return None
    nbrs = [list(row) for row in rows]
    for a, row in enumerate(rows):
        for b in row:
            nbrs[b].append(a)
    full = (1 << nv) - 1
    reached = [1 << v for v in range(nv)]
    rounds = 0
    while any(r != full for r in reached):
        nxt = []
        for r, nb in zip(reached, nbrs):
            if r != full:
                for u in nb:
                    r |= reached[u]
            nxt.append(r)
        if nxt == reached:
            return None
        reached = nxt
        rounds += 1
    return rounds


def quasimatroid_exchange(
    p: ZeroOnePolytope, a: int, b: int, i: int
) -> tuple[int, int]:
    """For vertices a and b of an equal-cardinality polytope p (kind
    birkhoff or matroid-bases), a pair (E, F) with i in E sube a - b,
    F sube b - a, |E| = |F|, (a - E) | F a vertex of p, and e_a + e_(a-E|F)
    admitting no other two-member split.

    Starts from cur = b and, while e_a + e_cur has a second split (C, D),
    moves cur to the one of C and D that avoids i. That side has the
    cardinality of cur, lies between a & cur and a | cur and differs from
    cur, so it shares more elements with a; the walk terminates.
    """
    if p.kind not in ("birkhoff", "matroid-bases"):
        raise ValueError("family members must have equal cardinality")
    _check_pair(p, a, b)
    ibit = 1 << i
    if not (a & ~b) & ibit:
        raise ValueError("i must lie in a minus b")

    cur = b
    while True:
        alt = _other_split(p, a, cur)
        if alt is None:
            return a & ~cur, cur & ~a
        vc, vd = alt
        cur = vc if not (vc & ibit) else vd


def flip_path(p: ZeroOnePolytope, a: int, b: int) -> list[int]:
    """Walk from vertex a to vertex b of a stable-set or birkhoff-kind
    polytope p: starting from a, flip the connected components of
    G[a xor b] one at a time, in order of least element.

    Every set on the walk is a vertex. It is (a & b) plus, per component
    C, either C & a or C & b; each part is stable, no edge joins two
    components, and a & b has no neighbour in a | b because a and b are
    stable. In the birkhoff kind every component is balanced, or flipping
    the one component alone would give a larger stable set than a or b,
    so every set on the walk has the top cardinality.

    Every hop is an edge: two consecutive sets differ by one component,
    which is connected, the test of build_skeleton_E (Chvatal 1975).

    The walk has k hops for k components, and k <= rank: a & b plus one
    element from each component is a stable set.
    """
    if p.kind not in ("stable-set", "birkhoff"):
        raise ValueError("path needs a stable-set or birkhoff polytope")
    _check_vertices(p, a, b)
    path = [a]
    for comp in connected_components(p.graph, a ^ b):
        path.append(path[-1] ^ comp)
    return path


def is_edge_walk(p: ZeroOnePolytope, walk: Sequence[int]) -> bool:
    """True iff every member of walk is a vertex of p and every hop joins
    two distinct vertices that pass the unique-sum edge test. Each hop is
    one scan of the family, |family| probes."""
    return all(v in p.index for v in walk) and all(
        u != v and is_edge_E(p, u, v) for u, v in zip(walk, walk[1:])
    )
