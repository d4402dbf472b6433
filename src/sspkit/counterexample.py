"""A 9-vertex family where the unique-sum edge test and the geometric
oracle disagree, plus the modified cube that separates the other inclusion.

The family of all maximal stable sets of the graph below contains two
members A, B that are NOT geometrically adjacent although e_A + e_B splits
in only one way. The direction e_A - e_B leaves through three other
members at once, which no two-member split can see. The family is pinned
here as a fixture and re-derived from the graph on every run; any drift
fails loudly.
"""

from __future__ import annotations

from .graphs import GroundSet, SimpleGraph, enumerate_stable_sets
from .geometry import oracle_is_edge
from .skeleton import ZeroOnePolytope, is_edge_E

REMARK_EDGES: tuple[tuple[int, int], ...] = (
    (1, 7), (1, 4), (2, 8), (2, 5), (3, 9), (3, 6),
    (7, 5), (7, 6), (8, 4), (8, 6), (9, 4), (9, 5),
)

REMARK_FAMILY: tuple[frozenset[int], ...] = tuple(
    frozenset(s)
    for s in (
        {1, 2, 3}, {1, 2, 6, 9}, {1, 3, 5, 8}, {1, 5, 6}, {1, 8, 9},
        {2, 3, 4, 7}, {2, 4, 6}, {2, 7, 9}, {3, 4, 5}, {3, 7, 8},
        {4, 5, 6}, {7, 8, 9},
    )
)

SET_A = frozenset({1, 2, 3})
SET_B = frozenset({4, 5, 6})
WITNESSES = (frozenset({1, 5, 6}), frozenset({2, 4, 6}), frozenset({3, 4, 5}))


def remark_graph() -> SimpleGraph:
    return SimpleGraph.from_edges(range(1, 10), REMARK_EDGES)


def maximal_stable_sets(g: SimpleGraph) -> list[int]:
    """Stable sets maximal under inclusion, in enumeration order."""
    return [
        s
        for s in enumerate_stable_sets(g)
        if all(g.adj[v] & s for v in range(g.n) if not (s >> v) & 1)
    ]


def maximal_family_polytope(g: SimpleGraph) -> ZeroOnePolytope:
    return ZeroOnePolytope(g.ground, maximal_stable_sets(g), "raw")


def modified_cube() -> ZeroOnePolytope:
    """The 3-cube with its top vertex cut away: every subset of {1,2,3}
    except the full one. Satisfies unique-sum/oracle agreement without
    being the stable-set family of any graph."""
    ground = GroundSet((1, 2, 3))
    return ZeroOnePolytope(ground, [0, 1, 2, 4, 3, 6, 5], "raw")


def is_stable_set_family(ground: GroundSet, family) -> bool:
    """True iff the family is exactly Stab(G) for some graph G on ground.

    Any such G is forced: its edges are precisely the pairs missing from
    the family. Build that graph and compare."""
    fam = set(family)
    n = len(ground)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if (1 << i) | (1 << j) not in fam:
                edges.append((ground.labels[i], ground.labels[j]))
    forced = SimpleGraph.from_edges(ground.labels, edges)
    return fam == set(enumerate_stable_sets(forced))


def verify_remark() -> list[tuple[str, bool, dict]]:
    """Check the three disagreement clauses on the pinned family, as
    (name, passed, {"note": ...}) triples: the checks of verify's suites.

    (i) the LP oracle refuses the pair (A, B); (ii) e_A - e_B is the sum
    of the three witness directions; (iii) the unique-sum test still calls
    (A, B) an edge. A fixture/derivation mismatch is reported alone."""
    g = remark_graph()
    ground = g.ground
    p = maximal_family_polytope(g)
    derived = p.vertices
    fixture = [ground.mask_of(s) for s in REMARK_FAMILY]

    match = sorted(derived) == sorted(fixture)
    clauses = [(
        "family-rederivation",
        match,
        {"note": f"{len(derived)} derived maximal stable sets vs {len(fixture)} pinned"},
    )]
    if not match:
        return clauses

    a, b = ground.mask_of(SET_A), ground.mask_of(SET_B)
    clauses.append((
        "oracle-refuses-AB",
        oracle_is_edge(p, a, b) is False,
        {"note": "LP found a nonnegative combination reaching e_A - e_B"},
    ))

    target = [((a >> k) & 1) - ((b >> k) & 1) for k in range(p.n)]
    acc = [0] * p.n
    for w in WITNESSES:
        wm = ground.mask_of(w)
        for k in range(p.n):
            acc[k] += ((wm >> k) & 1) - ((b >> k) & 1)
    clauses.append((
        "three-member-identity",
        acc == target,
        {"note": "e_A - e_B equals the sum of the three witness directions"},
    ))

    clauses.append((
        "unique-sum-still-claims-edge",
        is_edge_E(p, a, b),
        {"note": "e_A + e_B has no second two-member split in the family"},
    ))
    return clauses
