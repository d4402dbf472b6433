"""Matroids stored extensionally, their polytopes, and exchange steps."""

from __future__ import annotations

from itertools import combinations, product
from math import comb, prod
from typing import NamedTuple, Optional, Sequence

from .graphs import MAX_INDEPENDENTS, GroundSet, Label, _subset_sort_key, bits
from .skeleton import ZeroOnePolytope


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
    equivalent by induction. The exchange check then compares each member
    A only with the members one element larger: were B, with
    |B| >= |A| + 2, to have no y in B - A augmenting A, neither would any
    (|A|+1)-subset of B, a member by (I2). Levels go in (cardinality,
    mask) order, so the first violation is the one that a check of every
    pair would find.
    """
    fam = sorted(set(family), key=lambda m: (m.bit_count(), m))
    for m in fam:
        ground.check_mask(m)
    famset = set(fam)
    if 0 not in famset:
        return AxiomViolation("I1", ())
    for m in fam:
        for x in bits(m):
            if m ^ (1 << x) not in famset:
                return AxiomViolation("I2", (m, m ^ (1 << x)))
    levels: list[list[int]] = [[] for _ in range(fam[-1].bit_count() + 1)]
    for m in fam:
        levels[m.bit_count()].append(m)
    for lower, upper in zip(levels, levels[1:]):
        for a in lower:
            for b in upper:
                if not any(a | (1 << y) in famset for y in bits(b & ~a)):
                    return AxiomViolation("I3", (a, b))
    return None


class Matroid:
    """Ground set plus the full list of independent sets."""

    __slots__ = ("ground", "independents", "rank")

    def __init__(self, ground: GroundSet, independents: Sequence[int]):
        bad = check_matroid_axioms(ground, independents)
        if bad is not None:
            raise ValueError(
                f"independence axioms fail: {bad.axiom} with witness "
                f"{[ground.labels_of(w) for w in bad.witness]}"
            )
        fam = sorted(set(independents), key=_subset_sort_key)
        self.ground = ground
        self.independents = tuple(fam)
        self.rank = max(m.bit_count() for m in fam)

    def bases(self) -> list[int]:
        return [m for m in self.independents if m.bit_count() == self.rank]

    def __repr__(self) -> str:
        return (
            f"Matroid(n={len(self.ground)}, independents="
            f"{len(self.independents)}, rank={self.rank})"
        )


def build_uniform(n: int, k: int) -> Matroid:
    """Independent sets are all subsets of 1..n with at most k elements."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    # k + 1 nonzero terms exceed the cap once k >= MAX_INDEPENDENTS
    _check_size(sum(comb(n, i) for i in range(min(k, MAX_INDEPENDENTS) + 1)))
    ground = GroundSet(range(1, n + 1))
    fam = [
        sum(1 << x for x in members)
        for i in range(k + 1)
        for members in combinations(range(n), i)
    ]
    return Matroid(ground, fam)


def build_partition(block_sizes: Sequence[int]) -> Matroid:
    """Direct sum of rank-one uniforms: at most one element per block.

    Blocks are consecutive runs of 1..sum(sizes)."""
    if any(s <= 0 for s in block_sizes):
        raise ValueError("block sizes must be positive")
    _check_size(prod(s + 1 for s in block_sizes))
    ground = GroundSet(range(1, sum(block_sizes) + 1))
    choices = []  # per block: no element, or one of its elements
    at = 0
    for s in block_sizes:
        choices.append([0, *(1 << (at + j) for j in range(s))])
        at += s
    fam = [sum(pick) for pick in product(*choices)]
    return Matroid(ground, fam)


def _check_size(count: int) -> None:
    if count > MAX_INDEPENDENTS:
        raise ValueError(
            f"matroid has at least {count} independent sets; the builders "
            f"stop at {MAX_INDEPENDENTS}"
        )


def build_graphic(edges: Sequence[tuple[Label, Label]]) -> Matroid:
    """Forests of a simple graph; the ground set is the given edge list."""
    for u, v in edges:
        if u == v:
            raise ValueError("graphic matroid input must be loop-free")
    if len({frozenset(e) for e in edges}) != len(edges):
        raise ValueError("graphic matroid input must have distinct edges")
    ground = GroundSet(tuple(e) for e in edges)
    return Matroid(ground, _forests(ground.labels))


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
            _check_size(len(fam))
            stack.append((fam[-1], i + 1, grown))
    return fam


def independence_polytope(m: Matroid) -> ZeroOnePolytope:
    return ZeroOnePolytope(m.ground, m.independents, "matroid-independence")


def basis_polytope(m: Matroid) -> ZeroOnePolytope:
    return ZeroOnePolytope(m.ground, m.bases(), "matroid-bases")


def strong_exchange(m: Matroid, a: int, b: int, x: int) -> int:
    """For bases a, b and x in a - b: the first y in b - a (ground order)
    with both a - x + y and b - y + x independent."""
    basis_set = set(m.bases())
    if a not in basis_set or b not in basis_set:
        raise ValueError("strong_exchange needs two bases")
    xb = 1 << x
    if not (a & ~b) & xb:
        raise ValueError("x must lie in a minus b")
    fam = set(m.independents)
    for y in bits(b & ~a):
        yb = 1 << y
        if (a ^ xb) | yb in fam and (b ^ yb) | xb in fam:
            return y
    raise AssertionError("symmetric exchange must have a witness in a matroid")


def basis_exchange_adjacent(m: Matroid, a: int, b: int) -> bool:
    """Bases are polytope-adjacent iff their symmetric difference is a swap."""
    basis_set = set(m.bases())
    if a not in basis_set or b not in basis_set:
        raise ValueError("adjacency test needs two bases")
    return (a ^ b).bit_count() == 2
