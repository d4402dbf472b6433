"""Graph families on the pair ground set, comparability graphs of
partial orders, and set partitions.

Counts are frozen against the Bell and Catalan numbers computed from
their recurrences in an independent helper, and the nonnesting graph is
cross-checked against the comparability graph of the containment order.
"""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sspkit.families import (
    EDGE_COUNTS,
    FAMILY_BUILDERS,
    MAX_EDGES,
    STABLE_SET_COUNTS,
    SetPartition,
    arcs_to_partition,
    bell_number,
    build_bell_graph,
    build_comparability_graph,
    build_complete_graph,
    build_empty_graph,
    build_noncrossing_graph,
    build_nonnesting_graph,
    build_relation_graph,
    build_rook_graph,
    catalan_number,
    check_edge_count,
    check_stable_set_count,
    containment_pairs,
    is_noncrossing,
    is_nonnesting,
    pair_ground,
)
from sspkit.graphs import (
    MAX_STABLE_SETS,
    enumerate_max_cliques,
    enumerate_stable_sets,
)


class TestElementaryBuilders:
    def test_empty_graph(self):
        g = build_empty_graph(4)
        assert g.n == 4 and g.edge_count() == 0

    def test_complete_graph(self):
        g = build_complete_graph(4)
        assert g.edge_count() == 6

    def test_relation_graph_symmetrizes_and_drops_loops(self):
        g = build_relation_graph([1, 2, 3], [(1, 2), (2, 1), (3, 3)])
        assert g.edges() == [(0, 1)]

    def test_relation_graph_loop_on_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="label 3 not in ground set"):
            build_relation_graph([1, 2], [(3, 3)])

    def test_pair_ground_lex(self):
        gs = pair_ground(4)
        assert gs.labels == (
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        )


def pair_set_is_strict_order(n, rel):
    """Reference check on a set of index pairs (i, j), read as i < j:
    every pair inside range(n), irreflexive, antisymmetric, and transitive
    over every pair of pairs."""
    for i, j in rel:
        if not (0 <= i < n and 0 <= j < n) or i == j or (j, i) in rel:
            return False
    return all((i, l) in rel for i, j in rel for k, l in rel if j == k)


def transitive_closure(rel):
    rel = set(rel)
    while True:
        more = {(i, l) for i, j in rel for k, l in rel if j == k} - rel
        if not more:
            return rel
        rel |= more


# (n, a relation on range(n), whether to take its transitive closure)
relations = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=20) if n else st.just(set()),
        st.booleans(),
    )
)


class TestPoset:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="relation contains a cycle"):
            build_comparability_graph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])

    @settings(max_examples=300, deadline=None)
    @given(relations)
    @example((3, {(0, 0)}, False))  # reflexive
    @example((3, {(0, 1), (1, 0)}, False))  # symmetric
    @example((3, {(0, 1), (1, 0)}, True))  # symmetric, closure adds loops
    @example((3, {(0, 1), (1, 2)}, False))  # intransitive
    @example((4, {(0, 1), (1, 2), (2, 3)}, True))  # a chain
    def test_accepts_exactly_as_the_pair_set_reference(self, case):
        """A relation is refused exactly when its closure is no strict
        order; otherwise the graph joins exactly the pairs it relates."""
        n, rel, close = case
        if close:
            rel = transitive_closure(rel)
        closed = transitive_closure(rel)
        try:
            g = build_comparability_graph(range(n), rel)
        except ValueError:
            assert not pair_set_is_strict_order(n, closed)
        else:
            assert pair_set_is_strict_order(n, closed)
            assert set(g.edges()) == {(min(i, j), max(i, j)) for i, j in closed}

    def test_from_relation_closes(self):
        g = build_comparability_graph([1, 2, 3], [(1, 2), (2, 3)])
        assert g.adj == (0b110, 0b101, 0b011)

    def test_comparability_graph(self):
        g = build_comparability_graph([1, 2, 3], [(1, 2), (2, 3)])
        assert g.edge_count() == 3

    def test_containment_pairs(self):
        less = set(containment_pairs(4))
        # (2,3) nests weakly inside (1,4) and inside (2,4) and (1,3)
        for outer in ((1, 4), (2, 4), (1, 3)):
            assert ((2, 3), outer) in less
        assert not {((1, 2), (3, 4)), ((3, 4), (1, 2))} & less


class TestStableSetCounts:
    @pytest.mark.parametrize("family", sorted(STABLE_SET_COUNTS))
    def test_closed_form_matches_enumeration(self, family):
        for n in range(7):
            g = FAMILY_BUILDERS[family](n)
            assert len(enumerate_stable_sets(g)) == STABLE_SET_COUNTS[family](n)

    @pytest.mark.parametrize(
        "family, largest",
        [("empty", 15), ("complete", MAX_STABLE_SETS - 1), ("bell", 9),
         ("nn", 10), ("nc", 10), ("rook", 6)],
    )
    def test_refuses_exactly_past_the_cap(self, family, largest):
        count = STABLE_SET_COUNTS[family]
        assert count(largest) <= MAX_STABLE_SETS < count(largest + 1)
        check_stable_set_count(family, largest)
        with pytest.raises(ValueError, match="stable sets"):
            check_stable_set_count(family, largest + 1)

    def test_huge_n_is_refused_at_once(self):
        start = time.perf_counter()
        for family in STABLE_SET_COUNTS:
            with pytest.raises(ValueError, match="stable sets"):
                check_stable_set_count(family, 10**9)
        assert time.perf_counter() - start < 1

    def test_negative_n_is_left_to_the_builder(self):
        for family in STABLE_SET_COUNTS:
            check_stable_set_count(family, -5)


class TestEdgeCounts:
    @pytest.mark.parametrize("family", sorted(EDGE_COUNTS))
    def test_closed_form_matches_the_built_graph(self, family):
        for n in range(8):
            g = FAMILY_BUILDERS[family](n)
            assert len(g.edges()) == EDGE_COUNTS[family](n)

    def test_complete_is_refused_exactly_past_the_cap(self):
        count = EDGE_COUNTS["complete"]
        assert count(1448) <= MAX_EDGES < count(1449)
        check_edge_count("complete", 1448)
        with pytest.raises(ValueError, match="edges"):
            check_edge_count("complete", 1449)

    def test_no_other_family_reaches_the_cap_under_the_stable_set_cap(self):
        for family in EDGE_COUNTS:
            n = 0
            while STABLE_SET_COUNTS[family](n + 1) <= MAX_STABLE_SETS:
                n += 1
            if family != "complete":
                check_edge_count(family, n)


def adjacent(g, a, b):  # labels a and b are joined in g
    return bool(g.adj[g.ground.index(a)] >> g.ground.index(b) & 1)


class TestBellGraph:
    def test_bell3_structure(self):
        g = build_bell_graph(3)
        # (1,2)-(1,3) same row, (1,3)-(2,3) same column; (1,2)-(2,3) free
        assert adjacent(g, (1, 2), (1, 3))
        assert adjacent(g, (1, 3), (2, 3))
        assert not adjacent(g, (1, 2), (2, 3))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bell_counts(self, n):
        g = build_bell_graph(n)
        assert len(enumerate_stable_sets(g)) == bell_number(n)

    def test_bell_numbers_helper(self):
        assert [bell_number(k) for k in range(8)] == [
            1, 1, 2, 5, 15, 52, 203, 877,
        ]


class TestNonnestingGraph:
    def test_same_as_containment_comparability(self):
        for n in range(2, 6):
            g = build_nonnesting_graph(n)
            h = build_comparability_graph(pair_ground(n).labels, containment_pairs(n))
            assert g.adj == h.adj

    def test_shared_endpoint_nests(self):
        g = build_nonnesting_graph(4)
        # (1,3) weakly contains (1,2): same left endpoint
        assert adjacent(g, (1, 2), (1, 3))
        # (1,3) and (2,4) properly interleave: compatible
        assert not adjacent(g, (1, 3), (2, 4))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalan_counts(self, n):
        g = build_nonnesting_graph(n)
        assert len(enumerate_stable_sets(g)) == catalan_number(n)

    def test_max_cliques_are_maximal_chains(self):
        # cliques of a comparability graph = chains of the poset
        for n in range(2, 6):
            less = set(containment_pairs(n))
            g = build_nonnesting_graph(n)
            for c in enumerate_max_cliques(g):
                members = g.ground.labels_of(c)
                assert all(
                    (u, v) in less or (v, u) in less
                    for u in members
                    for v in members
                    if u != v
                )


class TestNoncrossingGraph:
    def test_clash_cases(self):
        g = build_noncrossing_graph(4)
        # same left endpoint
        assert adjacent(g, (1, 2), (1, 3))
        # same right endpoint
        assert adjacent(g, (1, 3), (2, 3))
        # proper interleave
        assert adjacent(g, (1, 3), (2, 4))
        # nesting is fine here
        assert not adjacent(g, (1, 4), (2, 3))
        # sharing one element as right-then-left endpoint is fine
        assert not adjacent(g, (1, 2), (2, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_catalan_counts(self, n):
        g = build_noncrossing_graph(n)
        assert len(enumerate_stable_sets(g)) == catalan_number(n)

    def test_catalan_helper(self):
        assert [catalan_number(k) for k in range(8)] == [
            1, 1, 2, 5, 14, 42, 132, 429,
        ]

    def test_nn_nc_coincide_exactly_up_to_three(self):
        for n in range(1, 6):
            same = build_nonnesting_graph(n).adj == build_noncrossing_graph(n).adj
            assert same == (n <= 3)


class TestRookGraph:
    def test_rook2(self):
        g = build_rook_graph(2)
        assert g.n == 4 and g.edge_count() == 4
        assert len(enumerate_stable_sets(g)) == 7

    def test_rook3_max_stable_sets_are_permutations(self):
        g = build_rook_graph(3)
        tops = [
            s for s in enumerate_stable_sets(g)
            if bin(s).count("1") == 3
        ]
        assert len(tops) == 6

    def test_registry(self):
        assert set(FAMILY_BUILDERS) == {
            "empty", "complete", "bell", "nn", "nc", "rook",
        }


class TestSetPartitions:
    def test_blocks_validated(self):
        with pytest.raises(ValueError):
            SetPartition(3, ((1, 2),))  # 3 missing

    def test_arcs_consecutive_in_block(self):
        p = SetPartition(5, ((1, 3, 5), (2,), (4,)))
        assert p.arcs() == [(1, 3), (3, 5)]

    def test_arcs_round_trip(self):
        g = build_bell_graph(5)
        gs = g.ground
        a = gs.mask_of([(1, 3), (3, 5)])
        p = arcs_to_partition(5, a)
        assert p == SetPartition(5, ((1, 3, 5), (2,), (4,)))

    def test_noncrossing_vs_nonnesting_classifiers(self):
        crossing = SetPartition(4, ((1, 3), (2, 4)))
        nesting = SetPartition(4, ((1, 4), (2, 3)))
        assert not is_noncrossing(crossing)
        assert is_nonnesting(crossing)
        assert is_noncrossing(nesting)
        assert not is_nonnesting(nesting)

    @pytest.mark.parametrize(
        "arcs",
        [[(1, 2), (1, 3)], [(1, 3), (2, 3)]],
        ids=["two-arcs-leave-one-left-end", "two-arcs-enter-one-right-end"],
    )
    def test_unstable_arc_set_rejected(self, arcs):
        a = pair_ground(3).mask_of(arcs)
        with pytest.raises(ValueError, match="not stable"):
            arcs_to_partition(3, a)

    def test_mask_outside_the_pair_ground_rejected(self):
        with pytest.raises(ValueError, match="outside the ground set"):
            arcs_to_partition(3, 1 << len(pair_ground(3)))

    def test_every_bell_stable_set_decodes(self):
        g = build_bell_graph(4)
        seen = set()
        for s in enumerate_stable_sets(g):
            p = arcs_to_partition(4, s)
            assert p not in seen
            seen.add(p)
        assert len(seen) == bell_number(4)
