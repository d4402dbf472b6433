"""Hypothesis strategies for polytopes, shared by the skeleton and
geometry tests."""

from hypothesis import strategies as st

from sspkit.graphs import GroundSet, SimpleGraph, ZeroOnePolytope, birkhoff_restrict


@st.composite
def graph_polytopes(draw, max_n=8):
    """A stable-set or birkhoff polytope of a graph on up to max_n
    elements: the empty ground set, edgeless, complete or random."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    shape = draw(st.sampled_from(["edgeless", "complete", "random"]))
    if shape == "edgeless":
        pairs = []
    elif shape == "random":
        pairs = [e for e in pairs if draw(st.booleans())]
    g = SimpleGraph.from_edges(range(n), pairs)
    return draw(st.sampled_from([ZeroOnePolytope.from_graph, birkhoff_restrict]))(g)


@st.composite
def raw_polytopes(draw):
    """A raw polytope of up to 16 subsets of a ground set of one to six
    elements, with or without the empty set."""
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=15))
    if draw(st.booleans()) or not masks:
        masks.insert(draw(st.integers(0, len(masks))), 0)
    return ZeroOnePolytope(GroundSet(range(n)), masks, "raw")
