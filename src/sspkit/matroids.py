"""Matroids as their independence polytopes: the axiom check that the
polytope constructor runs, the builders, bases and exchange steps."""

from __future__ import annotations

from itertools import accumulate, combinations, product
from math import comb
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import MAX_INDEPENDENTS, GroundSet, Label, _subset_sort_key, bits
from .skeleton import ZeroOnePolytope, _largest


class AxiomViolation(NamedTuple):
    """First failed independence axiom, with the witnessing subsets."""

    axiom: str  # "I1", "I2" or "I3"
    witness: tuple[int, ...]


def check_matroid_axioms(
    ground: GroundSet, family: Sequence[int]
) -> Optional[AxiomViolation]:
    """None if the family satisfies (I1) nonempty-contains-empty,
    (I2) downward closure, (I3) exchange; else the first violation.

    Downward closure is checked by single-element deletions, which is
    equivalent by induction. The same pass gives each member A the mask of
    its augmenting elements, the y with A + y a member. The exchange check
    then compares each A only with the members B one element larger, by one
    AND of B with that mask: were B, with |B| >= |A| + 2, to have no y in
    B - A augmenting A, neither would any (|A|+1)-subset of B, a member by
    (I2). Levels go in (cardinality, mask) order, so the first violation is
    the one that a check of every pair would find.
    """
    fam = sorted(set(family), key=lambda m: (m.bit_count(), m))
    for m in fam:
        ground.check_mask(m)
    famset = set(fam)
    if 0 not in famset:
        return AxiomViolation("I1", ())
    augment = dict.fromkeys(fam, 0)
    for m in fam:
        for x in bits(m):
            if m ^ (1 << x) not in famset:
                return AxiomViolation("I2", (m, m ^ (1 << x)))
            augment[m ^ (1 << x)] |= 1 << x
    levels: list[list[int]] = [[] for _ in range(fam[-1].bit_count() + 1)]
    for m in fam:
        levels[m.bit_count()].append(m)
    for lower, upper in zip(levels, levels[1:]):
        for a in lower:
            grow = augment[a]
            if not all(map(grow.__and__, upper)):
                return AxiomViolation("I3", (a, next(b for b in upper if not b & grow)))
    return None


def independence_polytope(
    ground: GroundSet, independents: Sequence[int]
) -> ZeroOnePolytope:
    """The independence polytope of the matroid with these independent
    sets, repeats dropped and sorted by cardinality, then positions. Its
    constructor checks the axioms, so the polytope is the matroid."""
    fam = sorted(set(independents), key=_subset_sort_key)
    return ZeroOnePolytope(ground, fam, "matroid-independence")


def build_uniform(n: int, k: int) -> ZeroOnePolytope:
    """Independent sets are all subsets of 1..n with at most k elements."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    # every term is at least 1, so the running sum passes the cap within
    # MAX_INDEPENDENTS + 1 terms whenever the whole does
    _check_size(accumulate(comb(n, i) for i in range(k + 1)))
    ground = GroundSet(range(1, n + 1))
    fam = [
        sum(1 << x for x in members)
        for i in range(k + 1)
        for members in combinations(range(n), i)
    ]
    return independence_polytope(ground, fam)


def build_partition(block_sizes: Sequence[int]) -> ZeroOnePolytope:
    """Direct sum of rank-one uniforms: at most one element per block.

    Blocks are consecutive runs of 1..sum(sizes)."""
    if any(s <= 0 for s in block_sizes):
        raise ValueError("block sizes must be positive")
    _check_size(accumulate((s + 1 for s in block_sizes), mul))
    ground = GroundSet(range(1, sum(block_sizes) + 1))
    choices = []  # per block: no element, or one of its elements
    at = 0
    for s in block_sizes:
        choices.append([0, *(1 << (at + j) for j in range(s))])
        at += s
    fam = [sum(pick) for pick in product(*choices)]
    return independence_polytope(ground, fam)


def _check_size(counts: Iterable[int]) -> None:
    """Refuse at the first of a running count's values past the cap, so a
    closed form stops there and the message holds a small number."""
    for count in counts:
        if count > MAX_INDEPENDENTS:
            raise ValueError(
                f"matroid has at least {count} independent sets; the builders "
                f"stop at {MAX_INDEPENDENTS}"
            )


def build_graphic(edges: Sequence[tuple[Label, Label]]) -> ZeroOnePolytope:
    """Forests of a simple graph; the ground set is the given edge list."""
    for u, v in edges:
        if u == v:
            raise ValueError("graphic matroid input must be loop-free")
    if len({frozenset(e) for e in edges}) != len(edges):
        raise ValueError("graphic matroid input must have distinct edges")
    ground = GroundSet(tuple(e) for e in edges)
    return independence_polytope(ground, _forests(ground.labels))


def _forests(edge_labels: Sequence[tuple[Label, Label]]) -> list[int]:
    """Edge masks of every forest, refused once there are more than
    MAX_INDEPENDENTS.

    Each forest grows only by edges after its last one, so each is made
    once; a forest carries its vertex -> component map, and an edge joining
    two components merges them into the first.
    """
    fam = [0]
    stack: list[tuple[int, int, dict]] = [(0, 0, {})]
    while stack:
        mask, start, comp = stack.pop()
        for i in range(start, len(edge_labels)):
            u, v = edge_labels[i]
            cu, cv = comp.get(u, u), comp.get(v, v)
            if cu == cv:
                continue
            grown = {x: cu if c == cv else c for x, c in comp.items()}
            grown[u] = grown[v] = cu
            fam.append(mask | 1 << i)
            _check_size((len(fam),))
            stack.append((fam[-1], i + 1, grown))
    return fam


def _check_bases(p: ZeroOnePolytope, what: str, *bases: int) -> None:
    """p is a matroid independence polytope, the bases its top-rank vertices."""
    if p.kind != "matroid-independence":
        raise ValueError(f"{what} needs a matroid independence polytope")
    if any(v not in p.index or v.bit_count() != p.rank for v in bases):
        raise ValueError(f"{what} needs two bases")


def basis_polytope(p: ZeroOnePolytope) -> ZeroOnePolytope:
    """The basis polytope of the matroid whose independence polytope is p."""
    _check_bases(p, "basis_polytope")
    return ZeroOnePolytope(p.ground, _largest(p.vertices), "matroid-bases")


def strong_exchange(p: ZeroOnePolytope, a: int, b: int, x: int) -> int:
    """For bases a, b of the matroid whose independence polytope is p, and
    x in a - b: the first y in b - a (ground order) with both a - x + y and
    b - y + x independent."""
    _check_bases(p, "strong_exchange", a, b)
    xb = 1 << x
    if not (a & ~b) & xb:
        raise ValueError("x must lie in a minus b")
    fam = p.index
    for y in bits(b & ~a):
        yb = 1 << y
        if (a ^ xb) | yb in fam and (b ^ yb) | xb in fam:
            return y
    raise AssertionError("symmetric exchange must have a witness in a matroid")


def basis_exchange_adjacent(p: ZeroOnePolytope, a: int, b: int) -> bool:
    """Bases are polytope-adjacent iff their symmetric difference is a swap;
    p is the matroid's independence polytope."""
    _check_bases(p, "adjacency test", a, b)
    return (a ^ b).bit_count() == 2
