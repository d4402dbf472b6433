"""Each CLI call imports only what its subcommand runs.

A fresh interpreter runs one subcommand through `cli.main` and reports the
modules it loaded. `skeleton`, `diameter` and `path` must not load the LP,
facet, matroid, family or verify layers; `skeleton --oracle` and `facets`
may load geometry, but not the verify suites; `build` of a graph family
does not load matroids. Reading a matroid-independence file loads
matroids too, whose axiom check the polytope constructor runs. Each
`verify` suite loads exactly the layers it runs, so `oracle-vs-E` loads
neither families, matroids nor counterexample. No call loads `dataclasses`
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
from sspkit.matroids import build_uniform
from sspkit.skeleton import ZeroOnePolytope
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
    "sspkit.verify", "sspkit.geometry", "sspkit.linalg", "sspkit.matroids",
    "sspkit.families", "sspkit.counterexample", "dataclasses",
]
NO_SUITES = ["sspkit.verify", "sspkit.matroids", "sspkit.counterexample"]
# Every verify call loads cli, serialize, verify, graphs and skeleton;
# these are the layers each suite adds.
SUITE_LAYERS = {
    "oracle-vs-E": {"geometry", "linalg"},
    "diameter-bounds": {"families"},
    "facets-always": {"families", "geometry", "linalg"},
    "matroid-E": {"families", "geometry", "linalg", "matroids"},
    "prop62": {"matroids"},
    "remark43": {"counterexample", "geometry", "linalg"},
    "partitions": {"families"},
}
VERIFY_BASE = {"cli", "serialize", "verify", "graphs", "skeleton"}
NUMBER_TYPES = ["fractions", "decimal"]
PARSERS = ["argparse", "gettext"]  # no call loads these


@pytest.fixture(scope="module")
def bell3(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "bell3.json"
    p = ZeroOnePolytope.from_graph(build_bell_graph(3))
    path.write_text(serialize.dumps(serialize.polytope_to_json(p)))
    return str(path)


@pytest.fixture(scope="module")
def u24(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "u24.json"
    path.write_text(serialize.dumps(serialize.polytope_to_json(build_uniform(4, 2))))
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
    "argv",
    [["skeleton", "--oracle", "--input", "{p}"], ["facets", "--input", "{p}"]],
    ids=["oracle", "facets"],
)
def test_geometry_subcommands_skip_the_suites(bell3, argv):
    mods = loaded(*(a.replace("{p}", bell3) for a in argv))
    assert "sspkit.geometry" in mods
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
    layers = {m.removeprefix("sspkit.") for m in mods if m.startswith("sspkit.")}
    assert layers == VERIFY_BASE | SUITE_LAYERS[suite]
    assert "dataclasses" not in mods


@pytest.mark.parametrize(
    "polytope, extra", [("bell3", set()), ("u24", {"matroids"})],
    ids=["graph-kind", "matroid-independence"],
)
def test_skeleton_layers_by_kind(request, polytope, extra):
    mods = loaded("skeleton", "--input", request.getfixturevalue(polytope))
    layers = {m.removeprefix("sspkit.") for m in mods if m.startswith("sspkit.")}
    assert layers == {"cli", "serialize", "skeleton", "graphs"} | extra


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
