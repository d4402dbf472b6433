"""Unique-sum edge test, skeleton construction, and constructive paths.

Ground truth throughout is the exact LP adjacency oracle; frozen edge
lists for the 3-pair clash graph were additionally worked out by hand.
"""

import random
import time
from collections import deque
from itertools import accumulate, count, repeat
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspkit import graphs, skeleton
from sspkit.families import (
    build_bell_graph,
    build_empty_graph,
    build_noncrossing_graph,
    build_nonnesting_graph,
    build_rook_graph,
)
from sspkit.geometry import build_skeleton_oracle, oracle_is_edge
from sspkit.graphs import GroundSet, connected_components, reach
from sspkit.matroids import basis_polytope, build_partition, build_uniform
from sspkit.skeleton import (
    Skeleton,
    ZeroOnePolytope,
    _other_split,
    birkhoff_restrict,
    build_skeleton_E,
    diameter,
    flip_path,
    is_edge_E,
    is_edge_walk,
    quasimatroid_exchange,
    unique_sum_skeleton,
)
from sspkit.verify import random_graph
from strategies import graph_polytopes, raw_polytopes


def bell3_polytope():
    return ZeroOnePolytope.from_graph(build_bell_graph(3))


class TestPolytopeValidation:
    def test_from_graph_is_stable_set_kind(self):
        p = bell3_polytope()
        assert p.kind == "stable-set"
        assert len(p.vertices) == 5
        assert p.rank == 2

    def test_stable_set_kind_rejects_wrong_family(self):
        g = build_bell_graph(3)
        with pytest.raises(ValueError, match="requires exactly"):
            ZeroOnePolytope(g.ground, [0, 1], "stable-set", graph=g)

    def test_birkhoff_kind_rejects_wrong_family(self):
        g = build_rook_graph(3)
        verts = birkhoff_restrict(g).vertices
        with pytest.raises(ValueError, match="requires exactly"):
            ZeroOnePolytope(g.ground, verts[:-1], "birkhoff", graph=g)

    @pytest.mark.parametrize("build", [ZeroOnePolytope.from_graph, birkhoff_restrict])
    def test_graph_builders_enumerate_once(self, monkeypatch, build):
        # counts the enumerations actually run, not the calls that read the
        # graph's kept result
        enumerations = []
        level_order = graphs._level_order

        def counted(adj):
            enumerations.append(adj)
            return level_order(adj)

        monkeypatch.setattr(graphs, "_level_order", counted)
        g = build_bell_graph(4)
        p = build(g)
        assert len(enumerations) == 1
        # the other builder in turn, then the checked constructor, reuse it
        for other in (ZeroOnePolytope.from_graph, birkhoff_restrict):
            other(g)
        q = ZeroOnePolytope(g.ground, p.vertices, p.kind, g)
        assert len(enumerations) == 1
        assert (p.vertices, p.rank, p.index) == (q.vertices, q.rank, q.index)
        build(build_bell_graph(4))  # an equal but new graph enumerates anew
        assert len(enumerations) == 2

    def test_raw_accepts_anything_distinct(self):
        g = build_empty_graph(2)
        p = ZeroOnePolytope(g.ground, [0b11, 0b01], "raw")
        assert p.kind == "raw"

    def test_raw_kind_refuses_a_graph(self):
        g = build_empty_graph(2)
        with pytest.raises(ValueError, match="kind 'raw' takes no graph"):
            ZeroOnePolytope(g.ground, [0b11, 0b01], "raw", graph=g)

    def test_duplicate_vertices_rejected(self):
        g = build_empty_graph(2)
        with pytest.raises(ValueError):
            ZeroOnePolytope(g.ground, [1, 1], "raw")

    def test_birkhoff_restrict(self):
        p = birkhoff_restrict(build_bell_graph(3))
        assert p.kind == "birkhoff"
        assert [bin(v).count("1") for v in p.vertices] == [2]


def reference_splits(p, va, vb):
    """Reference: every unordered pair {C, D} of members whose indicator
    vectors sum to e_A + e_B, compared coordinate by coordinate."""
    want = [(va >> k & 1) + (vb >> k & 1) for k in range(p.n)]
    verts = p.vertices
    return {
        frozenset((c, d))
        for i, c in enumerate(verts)
        for d in verts[i + 1 :]
        if [(c >> k & 1) + (d >> k & 1) for k in range(p.n)] == want
    }


def assert_matches_reference(p, va, vb):
    got = _other_split(p, va, vb)
    others = reference_splits(p, va, vb) - {frozenset((va, vb))}
    if got is None:
        assert not others
    else:
        c, d = got
        assert c in p.index and d in p.index
        assert frozenset(got) in others
        assert c & d == va & vb and c | d == va | vb
    return got


class TestDecompositions:
    def test_bell3_adjacent_pair_has_other_split(self):
        p = bell3_polytope()
        gs = p.ground
        a = gs.mask_of([(1, 2)])
        b = gs.mask_of([(2, 3)])
        # e_A + e_B also splits as e_{} + e_{(1,2),(2,3)}
        got = assert_matches_reference(p, a, b)
        assert set(got) == {0, a | b}

    def test_empty_vs_doubleton(self):
        p = bell3_polytope()
        gs = p.ground
        a = 0
        b = gs.mask_of([(1, 2), (2, 3)])
        got = assert_matches_reference(p, a, b)
        assert set(got) == {gs.mask_of([(1, 2)]), gs.mask_of([(2, 3)])}

    def test_adjacent_has_no_other_split(self):
        p = bell3_polytope()
        gs = p.ground
        assert assert_matches_reference(p, 0, gs.mask_of([(1, 3)])) is None

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(30):
            p = ZeroOnePolytope.from_graph(random_graph(rng, 5))
            for i, va in enumerate(p.vertices):
                for vb in p.vertices[i + 1 :]:
                    assert_matches_reference(p, va, vb)

    @given(st.lists(st.integers(0, 63), max_size=28))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_random_raw_families(self, drawn):
        # The empty set, {0} and the full 6-set are always members, so the
        # pairs include a one-element difference, (empty, {0}), and one of
        # all six elements, (empty, full), whose 2^5 candidate splits
        # outnumber the at most 31 members the split search scans.
        verts = list(dict.fromkeys([0, 1, 63, *drawn]))
        p = ZeroOnePolytope(GroundSet(range(6)), verts, "raw")
        assert len(verts) < 32
        for i, va in enumerate(verts):
            for vb in verts[i + 1 :]:
                assert_matches_reference(p, va, vb)


class TestEdgeE:
    def test_bell3_full_skeleton(self):
        p = bell3_polytope()
        gs = p.ground
        label = {
            frozenset(): 0,
            frozenset({(1, 2)}): gs.mask_of([(1, 2)]),
            frozenset({(1, 3)}): gs.mask_of([(1, 3)]),
            frozenset({(2, 3)}): gs.mask_of([(2, 3)]),
            frozenset({(1, 2), (2, 3)}): gs.mask_of([(1, 2), (2, 3)]),
        }
        nonedges = {
            (frozenset(), frozenset({(1, 2), (2, 3)})),
            (frozenset({(1, 2)}), frozenset({(2, 3)})),
        }
        names = list(label)
        for x in range(len(names)):
            for y in range(x + 1, len(names)):
                u, v = names[x], names[y]
                want = (u, v) not in nonedges and (v, u) not in nonedges
                got = is_edge_E(p, label[u], label[v])
                assert got == want, (u, v)

    def test_skeleton_matches_oracle_on_bell3(self):
        p = bell3_polytope()
        se = build_skeleton_E(p)
        so = build_skeleton_oracle(p)
        assert se.edges == so.edges
        assert len(se.edges) == 8

    def test_cube_skeleton_is_hamming_graph(self):
        p = ZeroOnePolytope.from_graph(build_empty_graph(3))
        s = build_skeleton_E(p)
        for i, j in s.edges:
            assert bin(p.vertices[i] ^ p.vertices[j]).count("1") == 1
        assert len(s.edges) == 12

    def test_same_vertex_rejected(self):
        p = bell3_polytope()
        v = p.vertices[1]
        with pytest.raises(ValueError, match="distinct"):
            is_edge_E(p, v, v)

    @pytest.mark.parametrize("mask", [0b111, 0b1000], ids=["not-stable", "off-ground"])
    def test_non_vertex_rejected(self, mask):
        # bell3 has a single stable pair, so all three pairs are no vertex;
        # bit 3 lies outside its ground set
        p = bell3_polytope()
        assert mask not in p.index
        for a, b in ((p.vertices[0], mask), (mask, p.vertices[0])):
            with pytest.raises(ValueError, match="must be vertices"):
                is_edge_E(p, a, b)

    @given(st.integers(0, 2**12))
    @settings(max_examples=40, deadline=None)
    def test_oracle_agreement_random(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, 5)
        p = ZeroOnePolytope.from_graph(g)
        k = len(p.vertices)
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            return
        a, b = p.vertices[i], p.vertices[j]
        assert is_edge_E(p, a, b) == oracle_is_edge(p, a, b)


def flood_fill_skeleton(p):
    """Reference: for each vertex pair, a flood fill from the lowest
    element of A xor B over the graph, kept inside A xor B."""
    adj, verts = p.graph.adj, p.vertices
    edges = []
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            diff = verts[a] ^ verts[b]
            if reach(adj, diff & -diff, diff) == diff:
                edges.append((a, b))
    return skeleton_of(len(verts), edges)


def skeleton_of(nv, edges):
    """A condition-E Skeleton of nv vertices with the given edges, each
    (i, j) either way round, folded into ascending rows of higher
    neighbours."""
    rows = [set() for _ in range(nv)]
    for i, j in edges:
        rows[min(i, j)].add(max(i, j))
    return Skeleton(tuple(tuple(sorted(row)) for row in rows), "condition-E")


def reference_connected_pairs(adj, verts, block_bits=1 << 16):
    """Reference: the bit-sliced kernel as it was when skeletons held edge
    tuples, giving index pairs a < b, ascending, with G[verts[a] xor
    verts[b]] connected."""
    nv = len(verts)
    n = len(adj)
    nbrs = [list(graphs.bits(m)) for m in adj]
    cols = [0] * n
    for b, v in enumerate(verts):
        for k in graphs.bits(v):
            cols[k] |= 1 << b
    edges = []
    r0 = 0
    while r0 < nv:
        nbytes = (nv - r0 + 7) >> 3
        width = nbytes << 3
        rows = min(nv - r0, max(1, block_bits // width))
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
        good = format(((1 << rows * width) - 1) ^ bad, "b")[::-1]
        for i in range(rows):
            a = r0 + i
            gaps = good[i * width + i + 1 : i * width + nv - r0].split("1")
            gaps.pop()
            ends = map(add, accumulate(map(len, gaps)), count(a + 1))
            edges.extend(zip(repeat(a), ends))
        r0 += rows
    return edges


class TestConnectivityRoute:
    """build_skeleton_E decides the graph kinds by connectivity of
    G[A xor B], many pairs per bit-sliced pass; the per-pair flood fill
    and the unique-sum test must give the same skeleton."""

    @given(st.integers(0, 2**32), st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_matches_unique_sum_walk(self, seed, n):
        g = random_graph(random.Random(seed), n)
        for p in (ZeroOnePolytope.from_graph(g), birkhoff_restrict(g)):
            s = build_skeleton_E(p)
            assert s == flood_fill_skeleton(p)
            assert s.edges == unique_sum_skeleton(p).edges
            assert s.provenance == "condition-E"

    # The real block size, one that splits these inputs into blocks of
    # several rows, and one smaller than a single row (a block per row).
    @pytest.mark.parametrize("block_bits", [skeleton._BLOCK_BITS, 1 << 11, 64])
    @pytest.mark.parametrize(
        "build, nv",
        [
            (lambda: ZeroOnePolytope.from_graph(build_empty_graph(0)), 1),
            (lambda: ZeroOnePolytope.from_graph(build_empty_graph(3)), 8),
            (lambda: ZeroOnePolytope.from_graph(build_empty_graph(7)), 128),
            (lambda: ZeroOnePolytope.from_graph(build_noncrossing_graph(6)), 132),
            (lambda: birkhoff_restrict(build_rook_graph(4)), 24),
        ],
        ids=["empty0", "cube3", "empty7", "nc6", "B4"],
    )
    def test_fixed_inputs(self, monkeypatch, block_bits, build, nv):
        monkeypatch.setattr(skeleton, "_BLOCK_BITS", block_bits)
        p = build()
        assert len(p.vertices) == nv
        s = build_skeleton_E(p)
        assert s == flood_fill_skeleton(p)
        pairs = reference_connected_pairs(p.graph.adj, p.vertices, block_bits)
        assert s.edges == tuple(pairs)

    def test_real_block_size_splits_nc7(self):
        # 429 vertices: rows of 432 bits, 151 rows to the first block
        p = ZeroOnePolytope.from_graph(build_noncrossing_graph(7))
        s = build_skeleton_E(p)
        assert len(s.edges) == 13366
        assert s == flood_fill_skeleton(p)


def edge_list_diameter(nv, edges):
    """Reference: the all-sources bitmask rounds as they were when
    skeletons held edge tuples, neighbour lists rebuilt from the pairs."""
    if nv == 0:
        return None
    nbrs = [[] for _ in range(nv)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
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


def reference_unique_sum_skeleton(p):
    """Reference: the rows of the pairs {A, B} that reference_splits finds
    to be the only split of e_A + e_B, asked pair by pair."""
    verts = p.vertices
    return tuple(
        tuple(
            b for b in range(a + 1, len(verts))
            if reference_splits(p, va, verts[b]) == {frozenset((va, verts[b]))}
        )
        for a, va in enumerate(verts)
    )


@st.composite
def matroid_polytopes(draw):
    """The independence or basis polytope of a uniform matroid on up to
    five elements or of a partition matroid of up to two blocks."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        p = build_uniform(n, draw(st.integers(0, n)))
    else:
        p = build_partition(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    return basis_polytope(p) if draw(st.booleans()) else p


class TestUniqueSumCount:
    """unique_sum_skeleton tallies one key per pair; the reference compares
    indicator sums coordinate by coordinate for each pair, sharing no code
    with the tally or with the split search."""

    @given(raw_polytopes())
    @settings(max_examples=100, deadline=None)
    def test_raw_families(self, p):
        assert unique_sum_skeleton(p).rows == reference_unique_sum_skeleton(p)

    @given(matroid_polytopes())
    @settings(max_examples=60, deadline=None)
    def test_matroids(self, p):
        assert unique_sum_skeleton(p).rows == reference_unique_sum_skeleton(p)

    @given(graph_polytopes(max_n=4))
    @settings(max_examples=60, deadline=None)
    def test_graph_polytopes(self, p):
        s = unique_sum_skeleton(p)
        assert s.rows == reference_unique_sum_skeleton(p)
        assert s == build_skeleton_E(p)


class TestConditionEKeepsEdges:
    """Condition E never drops a polytope edge: a polytope edge AB has no
    second split e_C + e_D = e_A + e_B, since the edge is a face holding
    the common midpoint, so it would hold C and D too. The converse fails
    on Remark 4.3's family. So every LP edge is an E edge, and `diameter`,
    which reads the E skeleton, never finds a file's skeleton
    disconnected."""

    @given(raw_polytopes())
    @settings(max_examples=100, deadline=None)
    def test_raw_families(self, p):
        oracle = build_skeleton_oracle(p).rows
        for row, e_row in zip(oracle, unique_sum_skeleton(p).rows, strict=True):
            assert set(row) <= set(e_row)


class TestRows:
    """A skeleton is one ascending row of higher neighbours per vertex.
    Rows, the derived edge tuple and the diameter must match the edge-list
    kernel and diameter they replaced."""

    @given(graph_polytopes())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_reference_pairs(self, p):
        s = build_skeleton_E(p)
        pairs = reference_connected_pairs(p.graph.adj, p.vertices)
        nv = len(p.vertices)
        assert s.vertex_count == nv
        assert s.edges == tuple(pairs)
        assert s.edge_count == len(pairs)
        assert s.rows == tuple(
            tuple(b for a, b in pairs if a == row) for row in range(nv)
        )
        flipped = [(b, a) for a, b in reversed(pairs)]
        assert skeleton_of(nv, flipped) == s
        d = diameter(s)
        assert d == edge_list_diameter(nv, pairs) == deque_diameter(s)
        assert d is not None and d <= p.rank


def deque_diameter(s):
    """Reference: one queue BFS per source, over adjacency lists."""
    if s.vertex_count == 0:
        return None
    adj = [[] for _ in range(s.vertex_count)]
    for i, j in s.edges:
        adj[i].append(j)
        adj[j].append(i)
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
        if min(dist) < 0:
            return None
        best = max(best, max(dist))
    return best


class TestDiameter:
    @given(st.integers(0, 2**32), st.integers(0, 14), st.sampled_from([0.1, 0.3, 0.6]))
    @settings(max_examples=150, deadline=None)
    def test_matches_deque_bfs(self, seed, nv, density):
        rng = random.Random(seed)
        edges = [
            (i, j)
            for i in range(nv)
            for j in range(i + 1, nv)
            if rng.random() < density
        ]
        s = skeleton_of(nv, edges)
        assert diameter(s) == deque_diameter(s) == edge_list_diameter(nv, edges)

    @pytest.mark.parametrize(
        "nv, edges, want",
        [
            (0, [], None),
            (1, [], 0),
            (2, [], None),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4)], 4),
            (6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)], None),
            (9, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8)], None),
        ],
        ids=[
            "no-vertices", "single-vertex", "two-isolated", "path-5", "two-parts",
            "three-paths",
        ],
    )
    def test_small_cases(self, nv, edges, want):
        s = skeleton_of(nv, edges)
        assert diameter(s) == deque_diameter(s) == edge_list_diameter(nv, edges) == want

    def test_cube3(self):
        p = ZeroOnePolytope.from_graph(build_empty_graph(3))
        assert diameter(build_skeleton_E(p)) == 3

    def test_bell3(self):
        assert diameter(build_skeleton_E(bell3_polytope())) == 2

    def test_single_vertex(self):
        p = birkhoff_restrict(build_bell_graph(3))
        assert diameter(build_skeleton_E(p)) == 0

    def test_disconnected_is_none(self):
        s = skeleton_of(3, [(0, 1)])
        assert diameter(s) is None


def raw_600():
    """600 seeded 30-element subsets of 1..60. No two pairs of them share
    a sum e_A + e_B, so the skeleton is complete."""
    rng = random.Random(600)
    masks = {}
    while len(masks) < 600:
        masks[sum(1 << k for k in rng.sample(range(60), 30))] = None
    return ZeroOnePolytope(GroundSet(range(1, 61)), list(masks), "raw")


class TestPastTheLadder:
    """Rows past the benchmark ladder. The nc8 and nn8 edge counts were
    confirmed once with the split search per pair (5.9 s, 5.8 s) that
    unique_sum_skeleton ran before it tallied sums, and once with the
    tally (1.1 s, 0.9 s); the bell7 and B6 rows check their skeleton
    against the tally on every run, outside the timed span (0.3 s each).
    B6 has 720 * 409 / 2 edges: two permutation matrices are adjacent iff
    they differ by one cycle, and 409 permutations of 6 are one cycle of
    length at least 2. The raw row goes through the tally; the split
    search per pair took 11.7 s on it. The budgets sit near five times the
    2-core time of building the polytope, build_skeleton_E and diameter
    (0.17, 0.04, 0.13, 0.13 and 0.25 s)."""

    @pytest.mark.parametrize(
        "build, vertices, edges, diam, rank, budget, recount",
        [
            (lambda: ZeroOnePolytope.from_graph(build_noncrossing_graph(8)),
             1430, 97755, 4, 7, 1.0, False),
            (lambda: ZeroOnePolytope.from_graph(build_bell_graph(7)),
             877, 30882, 6, 6, 0.25, True),
            (lambda: ZeroOnePolytope.from_graph(build_nonnesting_graph(8)),
             1430, 99439, 2, 7, 0.75, False),
            (lambda: birkhoff_restrict(build_rook_graph(6)),
             720, 147240, 2, 6, 0.75, True),
            (raw_600, 600, 179700, 1, 30, 1.25, False),
        ],
        ids=["nc8", "bell7", "nn8", "B6", "raw600"],
    )
    def test_row(self, build, vertices, edges, diam, rank, budget, recount):
        start = time.monotonic()
        p = build()
        s = build_skeleton_E(p)
        d = diameter(s)
        elapsed = time.monotonic() - start
        assert (len(p.vertices), len(s.edges), d, p.rank) == (
            vertices, edges, diam, rank
        )
        assert d <= p.rank
        assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s"
        if recount:
            assert unique_sum_skeleton(p).rows == s.rows


class TestQuasimatroidExchange:
    def test_contract_on_birkhoff_family(self):
        rng = random.Random(4242)
        hits = 0
        while hits < 25:
            g = random_graph(rng, 6)
            p = birkhoff_restrict(g)
            if len(p.vertices) < 2:
                continue
            a, b = rng.sample(list(p.vertices), 2)
            picks = [i for i in range(g.n) if (a >> i) & 1 and not (b >> i) & 1]
            if not picks:
                continue
            i = picks[0]
            drop, add = quasimatroid_exchange(p, a, b, i)
            # swaps one element of a-b for some subset avoiding i
            assert drop and (a & drop) == drop and (b & drop) == 0
            assert add and (b & add) == add and (a & add) == 0
            new = (a ^ drop) | add
            assert new in p.index
            assert not (new >> i) & 1 or (b >> i) & 1
            assert is_edge_E(p, a, new)
            hits += 1

    def test_rejects_unequal_cardinality(self):
        p = ZeroOnePolytope(GroundSet([1, 2]), [0b11, 0b1], "raw")
        with pytest.raises(ValueError, match="equal cardinality"):
            quasimatroid_exchange(p, 0b11, 0b1, 1)

    def test_endpoints_follow_the_point_query_rules(self):
        # the membership and distinctness checks of is_edge_E and flip_path
        p = basis_polytope(build_uniform(4, 2))
        a = p.vertices[0]
        with pytest.raises(ValueError, match="must be vertices"):
            quasimatroid_exchange(p, a, 0b1111, a.bit_length() - 1)
        with pytest.raises(ValueError, match="distinct"):
            quasimatroid_exchange(p, a, a, a.bit_length() - 1)


class TestPaths:
    def test_flip_path_base_case(self):
        g = build_bell_graph(3)
        a = g.ground.mask_of([(1, 2), (2, 3)])
        assert flip_path(birkhoff_restrict(g), a, a) == [a]

    @pytest.mark.parametrize("kind", ["stable-set", "birkhoff"])
    def test_flip_path_random_contract(self, kind):
        # one hop per component of G[a xor b], every set on the walk a
        # vertex, every hop an E-test edge, and so at most rank hops
        rng = random.Random(31337 if kind == "birkhoff" else 2718)
        done = 0
        while done < 40:
            g = random_graph(rng, rng.randrange(2, 9))
            p = birkhoff_restrict(g) if kind == "birkhoff" else ZeroOnePolytope.from_graph(g)
            if len(p.vertices) < 2:
                continue
            a, b = rng.sample(list(p.vertices), 2)
            walk = flip_path(p, a, b)
            assert walk[0] == a and walk[-1] == b
            assert len(walk) - 1 == len(connected_components(g, a ^ b))
            assert len(walk) - 1 <= p.rank
            assert all(v in p.index for v in walk)
            for u, v in zip(walk, walk[1:]):
                assert u != v
                assert is_edge_E(p, u, v)
            done += 1

    def test_flip_path_worked_example(self):
        # (1,3) and (1,2) clash, so G[a xor b] is one component: one hop
        g = build_bell_graph(3)
        gs = g.ground
        a = gs.mask_of([(1, 3)])
        b = gs.mask_of([(1, 2)])
        p = ZeroOnePolytope.from_graph(g)
        walk = flip_path(p, a, b)
        assert walk == [a, b]
        assert len(walk) - 1 <= p.rank
        assert is_edge_E(p, a, b)

    def test_flip_path_needs_graph_kind(self):
        g = build_bell_graph(3)
        vertices = ZeroOnePolytope.from_graph(g).vertices
        u24 = build_uniform(4, 2)
        raw = ZeroOnePolytope(g.ground, vertices, "raw")
        for p in (raw, u24, basis_polytope(u24)):
            with pytest.raises(ValueError, match="stable-set or birkhoff"):
                flip_path(p, p.vertices[0], p.vertices[-1])

    def test_path_endpoints_must_be_vertices(self):
        g = build_bell_graph(3)
        bad = g.ground.mask_of([(1, 2), (1, 3)])  # not stable
        with pytest.raises(ValueError, match="must be vertices"):
            flip_path(ZeroOnePolytope.from_graph(g), bad, 0)

    def test_is_edge_walk_refuses_a_non_vertex(self):
        p = bell3_polytope()
        assert is_edge_walk(p, [p.vertices[0], p.vertices[1]])
        assert is_edge_walk(p, [p.vertices[0], 0b111]) is False
        assert is_edge_walk(p, [0b111]) is False
