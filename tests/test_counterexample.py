"""The 9-vertex family where the unique-sum test and the LP oracle split,
and the 7-vertex modified cube that passes both yet is no stable-set family.
"""

from sspkit.counterexample import (
    REMARK_FAMILY,
    SET_A,
    SET_B,
    WITNESSES,
    is_stable_set_family,
    maximal_family_polytope,
    maximal_stable_sets,
    modified_cube,
    remark_graph,
    verify_remark,
)
from sspkit.geometry import build_skeleton_oracle, oracle_is_edge
from sspkit.graphs import enumerate_stable_sets
from sspkit.skeleton import build_skeleton_E, is_edge_E


class TestNineVertexFamily:
    def test_graph_shape(self):
        g = remark_graph()
        assert g.n == 9
        assert g.edge_count() == 12

    def test_family_rederives_from_graph(self):
        g = remark_graph()
        got = {
            frozenset(g.ground.labels_of(m)) for m in maximal_stable_sets(g)
        }
        assert got == set(REMARK_FAMILY)
        assert len(REMARK_FAMILY) == 12

    def test_pinned_members_are_maximal_stable(self):
        g = remark_graph()
        stabs = set(enumerate_stable_sets(g))
        for fam in REMARK_FAMILY:
            m = g.ground.mask_of(fam)
            assert m in stabs
            others = ~m & ((1 << 9) - 1)
            # maximality: every outside vertex clashes with something inside
            for v in range(9):
                if others >> v & 1:
                    assert g.adj[v] & m

    def test_unique_sum_claims_edge_but_oracle_refuses(self):
        p = maximal_family_polytope(remark_graph())
        a = p.ground.mask_of(SET_A)
        b = p.ground.mask_of(SET_B)
        assert is_edge_E(p, a, b)
        assert not oracle_is_edge(p, a, b)

    def test_three_member_identity(self):
        # e_A - e_B = sum over the three witnesses of (e_W - e_B)
        p = maximal_family_polytope(remark_graph())
        gs = p.ground
        a = gs.mask_of(SET_A)
        b = gs.mask_of(SET_B)
        total = [0] * 9
        for w in WITNESSES:
            wm = gs.mask_of(w)
            for i in range(9):
                total[i] += (wm >> i & 1) - (b >> i & 1)
        want = [(a >> i & 1) - (b >> i & 1) for i in range(9)]
        assert total == want

    def test_witnesses_are_family_members(self):
        for w in WITNESSES:
            assert w in REMARK_FAMILY

    def test_report_all_clauses_pass(self):
        clauses = verify_remark()
        assert all(passed for _, passed, _ in clauses)
        names = [name for name, _, _ in clauses]
        assert len(names) == len(set(names)) == 4


class TestModifiedCube:
    def test_vertices(self):
        p = modified_cube()
        assert len(p.vertices) == 7
        assert len(p.ground) == 3
        # the all-ones point is the one cut off
        assert 0b111 not in p.index

    def test_edge_test_agrees_with_oracle(self):
        p = modified_cube()
        assert build_skeleton_E(p).edges == build_skeleton_oracle(p).edges

    def test_downward_closed_but_not_stable_set_family(self):
        p = modified_cube()
        fam = set(p.vertices)
        # downward closed: all 7 proper subsets of {1,2,3} are present
        for m in fam:
            s = m
            while s:
                s = (s - 1) & m
                assert s in fam or s == m
        assert not is_stable_set_family(p.ground, fam)

    def test_full_cube_is_a_stable_set_family(self):
        p = modified_cube()
        assert is_stable_set_family(p.ground, set(range(8)))
