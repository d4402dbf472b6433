"""Each CLI call imports only what its subcommand runs.

A fresh interpreter runs one subcommand through `cli.main` and reports the
modules it loaded. `import sspkit.cli` alone loads `cli`, `serialize` and
`graphs`, which holds the polytope model. Each algorithm family is its own
module: `skeleton`, `diameter` and `path` add condition E's kernels
(`skeleton`) and no LP, facet, matroid, family or verify layer;
`skeleton --oracle` adds the LP oracle (`oracle`) and `facets` the facet
machinery (`geometry`), each with `linalg` and neither with the other's
layer or the kernels; `build` of a graph family adds `families` alone.
Reading a matroid-independence file loads matroids too, whose axiom check
the polytope constructor runs. Each `verify` suite loads exactly the layers
it runs, so `oracle-vs-E` loads neither families, matroids nor
counterexample, and `facets-always` neither the kernels nor the oracle.
No call loads `dataclasses`
(which pulls in `inspect`), nor `argparse` or `gettext`: the CLI reads
argv against its own option table.
Exact arithmetic is plain int throughout, so the LP and facet subcommands
and `verify` load neither `fractions` nor `decimal`. Start-up is most of a
short job's wall time, so a top-level import that creeps back shows in
every benchmark workload.

The lazy package namespace (PEP 562) is checked here too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sspkit
from sspkit import serialize
from sspkit.families import build_bell_graph
from sspkit.graphs import ZeroOnePolytope
from sspkit.matroids import build_uniform
from sspkit.verify import SUITES

SRC = str(Path(sspkit.__file__).resolve().parents[1])

PROBE = """
import contextlib, io, json, sys
from sspkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

LIGHT_ONLY = [
    "sspkit.verify", "sspkit.geometry", "sspkit.oracle", "sspkit.linalg",
    "sspkit.matroids", "sspkit.families", "sspkit.counterexample", "dataclasses",
]
NO_SUITES = ["sspkit.verify", "sspkit.matroids", "sspkit.counterexample"]
# What `import sspkit.cli` loads, and so every call.
CLI_BASE = {"cli", "serialize", "graphs"}
# Every verify call loads cli, serialize, verify and graphs; these are the
# layers each suite adds.
SUITE_LAYERS = {
    "oracle-vs-E": {"skeleton", "oracle", "linalg"},
    "diameter-bounds": {"families", "skeleton"},
    "facets-always": {"families", "geometry", "linalg"},
    "matroid-E": {"families", "skeleton", "oracle", "linalg", "matroids"},
    "prop62": {"matroids"},
    "remark43": {"counterexample", "skeleton", "oracle", "linalg"},
    "partitions": {"families"},
}
VERIFY_BASE = {"cli", "serialize", "verify", "graphs"}
NUMBER_TYPES = ["fractions", "decimal"]
PARSERS = ["argparse", "gettext"]  # no call loads these


@pytest.fixture(scope="module")
def bell3(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "bell3.json"
    p = ZeroOnePolytope.from_graph(build_bell_graph(3))
    path.write_text(serialize.polytope_json(p))
    return str(path)


@pytest.fixture(scope="module")
def u24(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "u24.json"
    path.write_text(serialize.polytope_json(build_uniform(4, 2)))
    return str(path)


def loaded(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["code"] == 0, proc.stderr
    mods = set(report["modules"])
    assert mods.isdisjoint(PARSERS), sorted(mods & set(PARSERS))
    return mods


def layers(mods):
    return {m.removeprefix("sspkit.") for m in mods if m.startswith("sspkit.")}


def test_cli_import_loads_only_the_model():
    # what the benchmark's cli.startup_s times: no kernel, oracle or facet layer
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, sspkit.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    mods = set(json.loads(proc.stdout))
    assert {m for m in mods if m.split(".")[0] == "sspkit"} == {
        "sspkit", *(f"sspkit.{m}" for m in CLI_BASE)
    }
    assert mods.isdisjoint(PARSERS + ["dataclasses"])


@pytest.mark.parametrize(
    "argv, added",
    [
        (["skeleton", "--input", "{p}"], {"skeleton"}),
        (["diameter", "--input", "{p}"], {"skeleton"}),
        (["path", "--input", "{p}", "--from", "[]", "--to", "[[1, 2]]"], {"skeleton"}),
        (["skeleton", "--oracle", "--input", "{p}"], {"oracle", "linalg"}),
        (["facets", "--input", "{p}"], {"geometry", "linalg"}),
        (["build", "--family", "nc", "--n", "4"], {"families"}),
    ],
    ids=["skeleton", "diameter", "path", "oracle", "facets", "build"],
)
def test_each_subcommand_loads_exactly_its_layers(bell3, argv, added):
    mods = loaded(*(a.replace("{p}", bell3) for a in argv))
    assert layers(mods) == CLI_BASE | added


@pytest.mark.parametrize(
    "argv",
    [
        ["skeleton", "--input", "{p}"],
        ["diameter", "--input", "{p}"],
        ["path", "--input", "{p}", "--from", "[]", "--to", "[[1, 2]]"],
    ],
    ids=["skeleton", "diameter", "path"],
)
def test_light_subcommands_skip_the_heavy_layers(bell3, argv):
    mods = loaded(*(a.replace("{p}", bell3) for a in argv))
    assert "sspkit.skeleton" in mods
    assert mods.isdisjoint(LIGHT_ONLY), sorted(mods & set(LIGHT_ONLY))


@pytest.mark.parametrize(
    "argv, layer",
    [(["skeleton", "--oracle", "--input", "{p}"], "sspkit.oracle"),
     (["facets", "--input", "{p}"], "sspkit.geometry")],
    ids=["oracle", "facets"],
)
def test_geometry_subcommands_skip_the_suites(bell3, argv, layer):
    mods = loaded(*(a.replace("{p}", bell3) for a in argv))
    assert layer in mods
    assert mods.isdisjoint(NO_SUITES), sorted(mods & set(NO_SUITES))


@pytest.mark.parametrize(
    "argv",
    [
        ["skeleton", "--oracle", "--input", "{p}"],
        ["facets", "--input", "{p}"],
        ["verify", "--suite", "all", "--graphs", "5", "--max-n", "4"],
    ],
    ids=["oracle", "facets", "verify"],
)
def test_exact_subcommands_load_no_rational_types(bell3, argv):
    mods = loaded(*(a.replace("{p}", bell3) for a in argv))
    assert "sspkit.linalg" in mods
    assert mods.isdisjoint(NUMBER_TYPES), sorted(mods & set(NUMBER_TYPES))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_loads_only_its_layers(suite):
    mods = loaded("verify", "--suite", suite, "--graphs", "5", "--max-n", "4")
    assert layers(mods) == VERIFY_BASE | SUITE_LAYERS[suite]
    assert "dataclasses" not in mods


@pytest.mark.parametrize(
    "polytope, extra", [("bell3", set()), ("u24", {"matroids"})],
    ids=["graph-kind", "matroid-independence"],
)
def test_skeleton_layers_by_kind(request, polytope, extra):
    mods = loaded("skeleton", "--input", request.getfixturevalue(polytope))
    assert layers(mods) == CLI_BASE | {"skeleton"} | extra


def test_graph_family_build_skips_matroids():
    mods = loaded("build", "--family", "nc", "--n", "4")
    assert "sspkit.families" in mods
    assert mods.isdisjoint(["sspkit.matroids", "dataclasses"])


def test_every_public_name_is_its_submodule_attribute():
    for name in sspkit.__all__:
        if name == "__version__":
            continue
        mod = importlib.import_module(f"sspkit.{sspkit._MODULE_OF[name]}")
        assert getattr(sspkit, name) is getattr(mod, name), name


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from sspkit import *", ns)
    assert set(sspkit.__all__) <= set(ns)
    assert ns["diameter"] is sspkit.diameter


def test_submodules_import_by_name():
    from sspkit import skeleton, verify

    assert skeleton.build_skeleton_E is sspkit.build_skeleton_E
    assert verify.SUITES is sspkit.SUITES


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sspkit.no_such_name
    assert not hasattr(sspkit, "dataclass")


def test_every_public_name_has_a_caller_in_the_package():
    """Each name in _EXPORTS is used by package code other than its own
    definition and __init__.py, so caller-less API cannot linger."""
    used: set[str] = set()
    for path in (Path(SRC) / "sspkit").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)  # a def calling itself is no caller
            used.update(
                node.id
                for node in ast.walk(top)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id != own
            )
    assert sorted(set(sspkit._MODULE_OF) - used) == []
