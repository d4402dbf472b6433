"""Property test of the CLI exit contract on arbitrary input.

Whatever the subcommand, options and payload file, `main` returns 0, 1 or
2, the only exception that leaves it is the SystemExit(2) of a usage
error, and stderr never holds a traceback. An argv token "{input}" stands
for a file holding the drawn payload text, "{output}" for a fresh output
file.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sspkit import serialize
from sspkit.cli import main
from sspkit.families import build_bell_graph
from sspkit.graphs import ZeroOnePolytope
from sspkit.skeleton import build_skeleton_E

KEYS = [
    "labels", "pairs", "less_than", "uniform", "partition", "graphic",
    "ground", "independents", "kind", "vertices", "graph", "edges", "rank",
    "provenance", "facets", "coeffs", "rhs",
]

small_int = st.integers(-2, 6)
label = st.one_of(small_int, st.text("ab", max_size=2), st.lists(small_int, max_size=2))
json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), small_int, st.text("ab1", max_size=3)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.sampled_from(KEYS), kids, max_size=4),
    ),
    max_leaves=12,
)
label_pairs = st.lists(st.lists(label, max_size=3), max_size=8)

BELL3 = ZeroOnePolytope.from_graph(build_bell_graph(3))
BELL3_JSON = json.loads(serialize.polytope_json(BELL3))
SKELETON_JSON = json.loads(serialize.skeleton_json(BELL3, build_skeleton_E(BELL3)))


def _replace(base: dict):
    """base with some fields dropped or overwritten by junk."""
    return st.tuples(
        st.sets(st.sampled_from(sorted(base))),
        st.dictionaries(st.sampled_from(sorted(base)), json_value, max_size=2),
    ).map(lambda dr: {
        **{k: v for k, v in base.items() if k not in dr[0]}, **dr[1]
    })


def _relation(key: str):
    """Labels 0..k-1 and pairs over 0..k, so most pairs are known labels."""
    return st.integers(0, 6).flatmap(lambda k: st.fixed_dictionaries({
        "labels": st.just(list(range(k))),
        key: st.lists(st.lists(st.integers(0, k), min_size=2, max_size=2), max_size=8),
    }))


payload_obj = st.one_of(  # half of the drawn objects are valid files
    st.sampled_from([BELL3_JSON, SKELETON_JSON]),
    st.one_of(
        _relation("pairs"),
        _relation("less_than"),
        st.fixed_dictionaries({"labels": st.lists(label, max_size=6), "pairs": label_pairs}),
        st.fixed_dictionaries({"uniform": st.lists(st.integers(-2, 40), max_size=3)}),
        st.fixed_dictionaries({"partition": st.lists(st.integers(-2, 12), max_size=4)}),
        st.fixed_dictionaries({"graphic": label_pairs}),
        st.fixed_dictionaries({
            "ground": st.lists(label, max_size=5),
            "independents": st.lists(st.lists(label, max_size=3), max_size=6),
        }),
        st.fixed_dictionaries({
            "kind": st.sampled_from(
                ["stable-set", "birkhoff", "matroid-bases", "matroid-independence", "raw", "x"]
            ),
            "ground": st.lists(label, max_size=5),
            "vertices": st.lists(st.lists(label, max_size=3), max_size=6),
        }),
        _replace(BELL3_JSON),
        _replace(SKELETON_JSON),
        json_value,
    ),
)
payload = st.one_of(payload_obj.map(json.dumps), st.text("{}[]\":,1a ", max_size=12))

n_value = st.one_of(
    st.integers(-3, 8), st.sampled_from([-1000, 40, 80, 500, 4000, 32767, 10**6])
)
builds = st.tuples(
    st.sampled_from(
        ["empty", "complete", "bell", "nn", "nc", "rook", "relation",
         "chain", "matroid", "bogus"]
    ),
    st.none() | n_value,
    st.booleans(),
    st.booleans(),
).map(lambda t: (
    ["build", "--family", t[0]]
    + ([] if t[1] is None else ["--n", str(t[1])])
    + (["--input", "{input}"] if t[2] else [])
    + (["--birkhoff"] if t[3] else [])
))
on_files = st.tuples(
    st.sampled_from(["skeleton", "diameter", "facets"]),
    st.lists(
        st.sampled_from(["--oracle", "--format", "json", "text", "dot"]),
        max_size=2,
    ),
).map(lambda t: [t[0], "--input", "{input}"] + t[1])
endpoint = st.one_of(
    st.sampled_from(BELL3_JSON["vertices"]).map(json.dumps),
    json_value.map(json.dumps),
    st.text("[]1,", max_size=5),
)
paths = st.tuples(endpoint, endpoint).map(
    lambda t: ["path", "--input", "{input}", "--from", t[0], "--to", t[1]]
)
verifies = st.tuples(
    st.sampled_from(
        ["oracle-vs-E", "partitions", "remark43", "facets-always", "all", "nope"]
    ),
    st.integers(-1, 3),
    st.integers(-1, 4),
).map(lambda t: ["verify", "--suite", t[0], "--seed", "3",
                 "--graphs", str(t[1]), "--max-n", str(t[2])])
junk = st.lists(
    st.sampled_from(["build", "--n", "x", "--family", "-h0", "{input}"]), max_size=4
)
command = st.one_of(builds, on_files, paths, verifies, junk)

# Hypothesis raises the recursion limit while a test runs; the CLI is run
# under the interpreter's own limit, read here at import.
RECURSION_LIMIT = sys.getrecursionlimit()

def run_cli(argv, text):
    """(exit code, stderr) of main(argv) at the interpreter's recursion
    limit, with "{input}" a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        inp, outp = os.path.join(tmp, "in.json"), os.path.join(tmp, "out")
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [{"{input}": inp, "{output}": outp}.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        raised_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, exc.code  # usage errors only
            code = exc.code
        finally:
            sys.setrecursionlimit(raised_limit)
    return code, err.getvalue()


CHAIN_240 = json.dumps({
    "labels": list(range(1, 241)),
    "less_than": [[i, i + 1] for i in range(1, 240)],
})


@settings(max_examples=120, deadline=None)
@given(command, payload)
@example(["build", "--family", "complete", "--n", "1100", "--output", "{output}"], "")
@example(["build", "--family", "complete", "--n", "32767", "--output", "{output}"], "")
@example(
    ["build", "--family", "relation", "--input", "{input}"],
    '{"labels": [1, 2], "pairs": [[3, 3]]}',
)
@example(
    ["build", "--family", "chain", "--input", "{input}", "--output", "{output}"],
    CHAIN_240,
)
def test_exit_contract(argv, text):
    code, err = run_cli(argv, text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
DEEP_LABEL = "[" * 900 + "]" * 900  # a label the codec decodes recursively


@pytest.mark.parametrize(
    "argv, text",
    [
        (["skeleton", "--input", "{input}"], DEEP_ARRAY),
        (["diameter", "--input", "{input}"],
         '{"kind": "raw", "ground": [%s], "vertices": [[]]}' % DEEP_LABEL),
        (["build", "--family", "relation", "--input", "{input}"],
         '{"labels": [%s], "pairs": []}' % DEEP_LABEL),
        (["path", "--input", "{input}", "--from", "[" * 5000 + "]" * 5000,
          "--to", "[]"], json.dumps(BELL3_JSON)),
    ],
    ids=["skeleton", "diameter", "build-relation", "path-from"],
)
def test_deep_nesting_is_bad_input(argv, text):
    """JSON nested past the recursion limit exits 2 with one error line."""
    code, err = run_cli(argv, text)
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
