"""Prints a one-line verdict per acceptance criterion at the end of a run.

Also makes Hypothesis print the reproduction blob of a failing example, so
a failure seen on one machine can be replayed on another.
"""

import re

from hypothesis import settings

settings.register_profile("sspkit", print_blob=True)
settings.load_profile("sspkit")

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_DESCRIPTIONS = {
    1: "3-pair polytope reproduction (5 vertices, 8 edges, dim 3)",
    2: "E-test equals LP oracle on 200 random graphs (SSP and BP)",
    3: "9-vertex family: unique sum holds, oracle refuses, certificate",
    4: "matroid catalog: E = oracle = basis-exchange adjacency",
    5: "Stab(G) is a matroid iff G is a union of complete graphs",
    6: "nonneg + clique inequalities are facets; chain/pair-family counts",
    7: "132-vertex noncrossing polytope: 32 facets and the extra one",
    8: "diameter <= rank with constructive walks; cube and 3-pair exact",
    9: "partition counts and images (Bell / Catalan, n <= 7)",
    10: "modified cube agrees E-vs-oracle yet is no stable-set family",
}

_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _PATTERN.search(report.nodeid)
    if m:
        num = int(m.group(1))
        _results[num] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        desc = _DESCRIPTIONS.get(num, "")
        terminalreporter.write_line(
            f"criterion {num:2d}: {_results[num]}  {desc}"
        )
