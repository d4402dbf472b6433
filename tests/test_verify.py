"""Cross-validation suite plumbing: determinism and report shape."""

import random
import tracemalloc

import pytest

from sspkit.families import (
    build_bell_graph, build_comparability_graph, build_empty_graph,
)
from sspkit.graphs import SizeLimitError
from sspkit.verify import (
    SUITES,
    _random_pairs,
    random_graph,
    random_graph_corpus,
    run_suites,
)


def test_corpus_is_deterministic():
    a = random_graph_corpus(7, 12, 5)
    b = random_graph_corpus(7, 12, 5)
    assert [g.adj for g in a] == [g.adj for g in b]
    sizes = {g.n for g in a}
    assert sizes == {2, 3, 4, 5}


def test_different_seed_changes_corpus():
    a = random_graph_corpus(7, 12, 5)
    b = random_graph_corpus(8, 12, 5)
    assert [g.adj for g in a] != [g.adj for g in b]


def test_registry_names():
    assert set(SUITES) == {
        "oracle-vs-E",
        "diameter-bounds",
        "facets-always",
        "matroid-E",
        "prop62",
        "remark43",
        "partitions",
    }


def test_run_suites_report_shape():
    reports = run_suites(list(SUITES), seed=3, graphs=6, max_n=4)
    assert [r["suite"] for r in reports] == list(SUITES)
    for r in reports:
        params, checks = SUITES[r["suite"]](seed=3, graphs=6, max_n=4)
        assert isinstance(params, dict) and isinstance(checks, list) and checks
        assert r == {
            "suite": r["suite"], "seed": 3, "params": params, "passed": True,
            "checks": [{"name": c, "passed": ok, "details": d} for c, ok, d in checks],
        }
        for c in r["checks"]:
            assert isinstance(c["name"], str) and isinstance(c["details"], dict)
            assert c["passed"] is True


def test_run_suites_calls_the_table_entry(monkeypatch):
    """run_suites looks each suite up in SUITES when it runs, so a wrapper
    put in the table (as a tracer does to time suites) sees every call."""
    calls = []
    inner = SUITES["remark43"]

    def wrapper(**kwargs):
        calls.append(kwargs)
        return inner(**kwargs)

    monkeypatch.setitem(SUITES, "remark43", wrapper)
    [r] = run_suites(["remark43"], seed=5, graphs=2, max_n=3)
    assert calls == [{"seed": 5, "graphs": 2, "max_n": 3}]
    assert r["suite"] == "remark43" and r["passed"] is True


def test_all_suites_pass_on_small_corpus():
    reports = run_suites(list(SUITES), seed=11, graphs=15, max_n=5)
    assert all(r["passed"] for r in reports), [
        (r["suite"], [c["name"] for c in r["checks"] if not c["passed"]])
        for r in reports
        if not r["passed"]
    ]


def test_graph_and_poset_draw_the_same_pairs():
    """From one generator state, the random orders of facets-always close
    exactly the pairs that random_graph joins, and both leave the generator
    in the same state."""
    for n in range(2, 8):
        rg, rp = random.Random(n), random.Random(n)
        g = random_graph(rg, n)
        labels = range(1, n + 1)
        want = build_comparability_graph(labels, [(i + 1, j + 1) for i, j in g.edges()])
        assert build_comparability_graph(labels, _random_pairs(rp, n)).adj == want.adj
        assert rg.random() == rp.random()


def test_diameter_bounds_draws_pairs_without_listing_them():
    # The corpus ends at n = 24, a graph with 656 stable sets and 214,840
    # vertex pairs. Listing every pair to sample 12 peaked near 40 MB
    # traced; drawing each pair from the vertex indices peaks near 8 MB.
    tracemalloc.start()
    try:
        [rep] = run_suites(["diameter-bounds"], seed=7, graphs=23, max_n=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["passed"]
    assert peak < 16_000_000


def test_oracle_cap_refuses_before_the_other_routes(monkeypatch):
    # The unique-sum tally holds a key per vertex pair with no cap; on the
    # 4096 vertices of the 12-cube it must never start, since the oracle
    # refuses that polytope at once. Behind a graph within the cap, the
    # 12-cube is refused before any route runs on that first graph.
    import sspkit.oracle
    import sspkit.skeleton
    import sspkit.verify

    def never(p):
        raise AssertionError("ran before the oracle's cap")

    monkeypatch.setattr(sspkit.skeleton, "build_skeleton_E", never)
    monkeypatch.setattr(sspkit.skeleton, "unique_sum_skeleton", never)
    for corpus in ([build_empty_graph(12)], [build_bell_graph(3), build_empty_graph(12)]):
        monkeypatch.setattr(sspkit.verify, "random_graph_corpus", lambda *args: corpus)
        with pytest.raises(SizeLimitError, match="^4096 vertices exceeds the LP oracle cap "
                                                 "of 2048$"):
            run_suites(["oracle-vs-E"], seed=7, graphs=len(corpus), max_n=12)
        monkeypatch.setattr(sspkit.oracle, "build_skeleton_oracle", never)
