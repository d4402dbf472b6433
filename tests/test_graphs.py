"""Ground sets, simple graphs, stable sets, cliques."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspkit.families import build_empty_graph
from sspkit.graphs import (
    MAX_STABLE_SETS,
    GroundSet,
    SimpleGraph,
    _subset_sort_key,
    bits,
    connected_components,
    enumerate_max_cliques,
    enumerate_stable_sets,
    is_union_of_complete_graphs,
)


def path3():
    return SimpleGraph.from_edges([1, 2, 3], [(1, 2), (2, 3)])


class TestGroundSet:
    def test_order_fixes_coordinates(self):
        gs = GroundSet(["a", "b", "c"])
        assert gs.index("b") == 1
        assert gs.mask_of(["a", "c"]) == 0b101
        assert gs.labels_of(0b110) == ("b", "c")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GroundSet([1, 1, 2])

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            GroundSet([1, 2]).index(3)

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            GroundSet([1, 2]).check_mask(1 << 2)

    def test_label_listed_twice_rejected(self):
        with pytest.raises(ValueError, match="label 'b' listed twice"):
            GroundSet(["a", "b"]).mask_of(["b", "a", "b"])


class TestSimpleGraph:
    def test_from_edges(self):
        g = path3()
        assert g.n == 3
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.edge_count() == 2

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges([1, 2], [(1, 1)])

    def test_asymmetric_adj_rejected(self):
        gs = GroundSet([1, 2])
        with pytest.raises(ValueError):
            SimpleGraph(gs, [0b10, 0b00])


class TestStableSets:
    def test_path3_membership(self):
        g = path3()
        stabs = enumerate_stable_sets(g)
        assert g.ground.mask_of([1, 3]) in stabs
        assert g.ground.mask_of([1, 2]) not in stabs
        assert 0 in stabs

    def test_path3_enumeration(self):
        g = path3()
        got = enumerate_stable_sets(g)
        want = [0, 0b001, 0b010, 0b100, 0b101]
        assert got == want

    def test_empty_graph_powerset(self):
        g = SimpleGraph.from_edges([1, 2, 3, 4], [])
        assert len(enumerate_stable_sets(g)) == 16

    def test_complete_graph(self):
        g = SimpleGraph.from_edges(
            [1, 2, 3], [(1, 2), (1, 3), (2, 3)]
        )
        assert enumerate_stable_sets(g) == [0, 1, 2, 4]

    def test_order_is_cardinality_then_lex(self):
        g = SimpleGraph.from_edges([1, 2, 3], [])
        got = enumerate_stable_sets(g)
        assert got == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]


    def test_cap_is_inclusive(self):
        assert len(enumerate_stable_sets(build_empty_graph(15))) == MAX_STABLE_SETS

    def test_refused_past_the_cap(self):
        with pytest.raises(ValueError, match="more than 32768 stable sets"):
            enumerate_stable_sets(build_empty_graph(16))

    @pytest.mark.parametrize("n", [16, 40])
    def test_refusal_costs_about_the_cap(self, n):
        # the level loop counts sets as it makes them; building the cap's
        # 32,768 sets takes about 10 ms, so 0.5 s leaves room for a slow box
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 32768 stable sets"):
            enumerate_stable_sets(build_empty_graph(n))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", [40_000, MAX_STABLE_SETS - 1])
    def test_wide_graph_refused_before_the_first_level(self, n):
        # The empty set, the singletons and the non-adjacent pairs are
        # stable, so the count is past the cap before any set is made.
        # Building the singletons first, each with an n-bit mask, peaked at
        # 323 MB traced on 40,000 vertices, and with the next level's first
        # extensions at 434 MB on 32,767.
        g = build_empty_graph(n)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than 32768 stable sets"):
                enumerate_stable_sets(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 11).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.tuples(
            st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))))))
    def test_matches_filter_of_all_masks(self, n_edges):
        n, pairs = n_edges
        g = SimpleGraph.from_edges(range(n), [(u, v) for u, v in pairs if u != v])
        want = sorted(
            (m for m in range(1 << n)
             if all(not g.adj[v] & m for v in range(n) if m >> v & 1)),
            key=_subset_sort_key,
        )
        assert enumerate_stable_sets(g) == want

    def test_each_call_returns_a_new_list(self):
        g = path3()
        first = enumerate_stable_sets(g)
        first.append(0b111)
        first.sort(reverse=True)
        assert enumerate_stable_sets(g) == [0, 0b001, 0b010, 0b100, 0b101]

    def test_complete_graph_deeper_than_the_recursion_limit(self):
        n = 1500
        everything = (1 << n) - 1
        g = SimpleGraph(GroundSet(range(n)), [everything ^ (1 << v) for v in range(n)])
        stabs = enumerate_stable_sets(g)
        assert len(stabs) == n + 1
        assert stabs == [0] + [1 << v for v in range(n)]


class TestMaxCliques:
    def test_path3(self):
        g = path3()
        assert enumerate_max_cliques(g) == [0b011, 0b110]

    def test_complete4(self):
        g = SimpleGraph.from_edges(
            [1, 2, 3, 4],
            [(i, j) for i in range(1, 5) for j in range(i + 1, 5)],
        )
        assert enumerate_max_cliques(g) == [0b1111]

    def test_edgeless(self):
        g = SimpleGraph.from_edges([1, 2], [])
        # isolated vertices are the maximal cliques
        assert enumerate_max_cliques(g) == [0b01, 0b10]

    def test_triangle_plus_pendant(self):
        g = SimpleGraph.from_edges(
            [1, 2, 3, 4], [(1, 2), (1, 3), (2, 3), (3, 4)]
        )
        # canonical order: cardinality first, so {3,4} precedes the triangle
        assert enumerate_max_cliques(g) == [0b1100, 0b0111]


class TestStructure:
    def test_components(self):
        g = SimpleGraph.from_edges([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert connected_components(g, 0b1111) == [0b0011, 0b1100]

    def test_union_of_complete_graphs(self):
        yes = SimpleGraph.from_edges(
            [1, 2, 3, 4, 5], [(1, 2), (1, 3), (2, 3)]
        )
        assert is_union_of_complete_graphs(yes)
        no = path3()
        assert not is_union_of_complete_graphs(no)


def components_by_search(g, within):
    """Reference: depth-first search from each unseen vertex of within,
    along edges that stay inside it."""
    seen = set()
    comps = []
    for v in bits(within):
        if v in seen:
            continue
        comp, stack = 0, [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp |= 1 << u
            for w in bits(g.adj[u] & within):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


@given(st.integers(0, 2**32), st.integers(0, 12), st.sampled_from([0.1, 0.25, 0.5]))
@settings(max_examples=100, deadline=None)
def test_components_match_search(seed, n, density):
    rng = random.Random(seed)
    labels = range(n)
    edges = [(i, j) for i in labels for j in labels if i < j and rng.random() < density]
    g = SimpleGraph.from_edges(labels, edges)
    for within in ((1 << n) - 1, rng.getrandbits(n) if n else 0):
        assert connected_components(g, within) == components_by_search(g, within)

