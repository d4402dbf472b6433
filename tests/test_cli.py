"""End-to-end CLI runs against temp files; exit codes are part of the
contract (0 all-pass, 1 failed verification, 2 bad input)."""

import errno
import gc
import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from itertools import combinations
from pathlib import Path

import pytest

from sspkit.cli import COMMANDS, _parse, main
from sspkit.counterexample import maximal_family_polytope, modified_cube, remark_graph
from sspkit.families import FAMILY_BUILDERS
from sspkit.geometry import enumerate_facets
from sspkit.graphs import GroundSet, ZeroOnePolytope
from sspkit.serialize import dumps, polytope_to_json
from sspkit.verify import MATROID_CATALOG, SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_build_bell(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, _ = run(capsys, "build", "--family", "bell", "--n", "3",
                         "--output", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "stable-set"
        assert len(data["vertices"]) == 5

    def test_build_birkhoff(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, _ = run(capsys, "build", "--family", "rook", "--n", "2",
                         "--birkhoff", "--output", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "birkhoff"
        assert len(data["vertices"]) == 2  # the two permutations

    def test_build_to_stdout(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "nc", "--n", "4")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 14

    def test_build_relation(self, tmp_path, capsys):
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps(
            {"labels": [1, 2, 3], "pairs": [[1, 2], [2, 3]]}
        ))
        code, out, _ = run(capsys, "build", "--family", "relation",
                           "--input", str(rel))
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 5

    def test_build_chain(self, tmp_path, capsys):
        po = tmp_path / "poset.json"
        po.write_text(json.dumps(
            {"labels": [1, 2, 3], "less_than": [[1, 2], [2, 3], [1, 3]]}
        ))
        code, out, _ = run(capsys, "build", "--family", "chain",
                           "--input", str(po))
        assert code == 0
        # chain of length 3: antichains of a 3-chain = {}, {1}, {2}, {3}
        assert len(json.loads(out)["vertices"]) == 4

    def test_build_matroid(self, tmp_path, capsys):
        mj = tmp_path / "m.json"
        mj.write_text(json.dumps({"uniform": [4, 2]}))
        code, out, _ = run(capsys, "build", "--family", "matroid",
                           "--input", str(mj), "--birkhoff")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "matroid-bases"
        assert len(data["vertices"]) == 6

    def test_matroid_on_large_ground_set(self, tmp_path, capsys):
        # 30 elements but only 31 independent sets: no 2^30 scan
        mj = tmp_path / "m.json"
        mj.write_text(json.dumps({"uniform": [30, 1]}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "build", "--family", "matroid",
                           "--input", str(mj))
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 31
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "payload",
        [
            {"uniform": [30, 15]},
            {"partition": [2] * 30},
            {"graphic": [[i, j] for i in range(1, 7) for j in range(i + 1, 7)]},
            {"uniform": [10**9, 2000]},
            {"partition": [1] * 10**6},
        ],
        ids=["uniform-30-15", "partition-30-blocks", "graphic-k6",
             "uniform-1e9-2000", "partition-1e6-blocks"],
    )
    def test_oversized_matroid_is_error(self, tmp_path, capsys, payload):
        # The closed-form counts stop at the cap. The whole counts of the
        # last two had more digits than int-to-str conversion allows, and
        # the product over a million blocks took 15.7 s.
        mj = tmp_path / "m.json"
        mj.write_text(json.dumps(payload))
        start = time.perf_counter()
        code, _, err = run(capsys, "build", "--family", "matroid",
                           "--input", str(mj))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error: matroid has at least ")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_wide_relation_is_refused_before_the_first_level(self, tmp_path, capsys):
        # 200,000 labels and no pairs: 1.4 MB of input whose first level of
        # stable sets alone would take gigabytes
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"labels": list(range(200_000)), "pairs": []}))
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "--family", "relation",
                             "--input", str(rel))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: graph has more than 32768 stable sets\n"

    @pytest.mark.parametrize(
        "family, n",
        [("nc", "12"), ("empty", "24"), ("rook", "7"), ("rook", "60"), ("nc", "80")],
    )
    def test_too_many_stable_sets_is_error(self, capsys, family, n):
        # refused from the closed-form count, before the graph is built
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "--family", family, "--n", n)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and "stable sets" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("birkhoff", [False, True])
    def test_wrong_vertex_list_in_a_file_is_error(self, tmp_path, capsys, birkhoff):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "rook", "--n", "3", "--output", str(p),
            *(["--birkhoff"] if birkhoff else []))
        data = json.loads(p.read_text())
        data["vertices"] = data["vertices"][:-1]
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "skeleton", "--input", str(p))
        assert code == 2 and out == ""
        assert "requires exactly" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("n", ["1449", "4000", "32767"])
    def test_too_many_edges_is_error(self, capsys, n):
        # complete --n N has only N + 1 stable sets, but N(N - 1)/2 edges
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "--family", "complete", "--n", n)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and "edges" in err
        assert len(err.strip().splitlines()) == 1

    def test_complete_graph_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, err = run(capsys, "build", "--family", "complete", "--n", "1100",
                           "--output", str(out))
        assert code == 0 and err == ""
        assert len(json.loads(out.read_text())["vertices"]) == 1101

    def test_long_chain(self, tmp_path, capsys):
        po = tmp_path / "poset.json"
        po.write_text(json.dumps({
            "labels": list(range(1, 241)),
            "less_than": [[i, i + 1] for i in range(1, 240)],
        }))
        start = time.perf_counter()
        code, out, _ = run(capsys, "build", "--family", "chain",
                           "--input", str(po))
        assert time.perf_counter() - start < 2
        assert code == 0
        # the antichains of a chain are the empty set and the singletons
        assert len(json.loads(out)["vertices"]) == 241

    def test_rook6_birkhoff_builds_under_the_cap(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "rook", "--n", "6",
                           "--birkhoff")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 720

    def test_missing_n_is_error(self, capsys):
        code, _, err = run(capsys, "build", "--family", "bell")
        assert code == 2
        assert "error" in err

    def test_payload_missing_key_is_error(self, tmp_path, capsys):
        # valid JSON but not a valid payload: must be exit 2, not a traceback
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"labels": [1, 2]}))
        code, _, err = run(capsys, "build", "--family", "relation",
                           "--input", str(rel))
        assert code == 2
        assert "pairs" in err

    @pytest.mark.parametrize(
        "payload",
        [[], {"labels": 5, "pairs": []}, {"labels": [1], "pairs": [3]},
         {"labels": [1, 2], "pairs": [[3, 3]]}],
        ids=["not-an-object", "labels-not-a-list", "pair-not-a-list",
             "loop-on-unknown-label"],
    )
    def test_malformed_payload_is_error(self, tmp_path, capsys, payload):
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps(payload))
        code, _, err = run(capsys, "build", "--family", "relation",
                           "--input", str(rel))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestSkeletonCmd:
    @pytest.fixture()
    def bell3(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run(capsys, "build", "--family", "bell", "--n", "3",
            "--output", str(out))
        return out

    def test_json_output(self, bell3, capsys):
        code, out, _ = run(capsys, "skeleton", "--input", str(bell3))
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "condition-E"
        assert len(data["edges"]) == 8

    def test_oracle_flag(self, bell3, capsys):
        code, out, _ = run(capsys, "skeleton", "--input", str(bell3),
                           "--oracle")
        data = json.loads(out)
        assert data["provenance"] == "oracle"
        assert len(data["edges"]) == 8

    def test_dot_format(self, bell3, capsys):
        code, out, _ = run(capsys, "skeleton", "--input", str(bell3),
                           "--format", "dot")
        assert code == 0
        assert out.startswith("graph skeleton {")
        assert out.count(" -- ") == 8

    def test_oracle_dot_format(self, bell3, capsys):
        """On a stable-set file the LP route writes the same DOT graph as
        condition E, under its own provenance line."""
        (code_e, dot_e, _), (code_o, dot_o, _) = (
            run(capsys, "skeleton", "--input", str(bell3), *extra, "--format", "dot")
            for extra in ([], ["--oracle"])
        )
        assert code_e == code_o == 0
        assert dot_o == dot_e.replace("provenance: condition-E", "provenance: oracle")

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path, capsys):
        rel, poly = tmp_path / "rel.json", tmp_path / "p.json"
        rel.write_text(json.dumps({"labels": ['a"b', "c\\d"], "pairs": []}))
        run(capsys, "build", "--family", "relation", "--input", str(rel),
            "--output", str(poly))
        code, out, _ = run(capsys, "skeleton", "--input", str(poly), "--format", "dot")
        assert code == 0
        labels = re.findall(r'\[label=(.*)\];', out)
        assert labels == ['"{}"', r'"{a\"b}"', r'"{c\\d}"', r'"{a\"b,c\\d}"']
        # each label is one DOT quoted string: only \" and \\ escapes
        assert all(re.fullmatch(r'"(?:[^"\\]|\\["\\])*"', x) for x in labels)

    @pytest.mark.parametrize(
        "kind, vertices",
        [("raw", [[], list(range(40))]),
         ("matroid-bases", [list(range(20)), list(range(20, 40))])],
        ids=["raw", "matroid-bases"],
    )
    @pytest.mark.parametrize(
        "command",
        [["skeleton"], ["skeleton", "--oracle"], ["diameter"]],
        ids=["skeleton", "oracle", "diameter"],
    )
    def test_two_vertices_over_40_elements(self, tmp_path, capsys, kind,
                                           vertices, command):
        # The two vertices differ in all 40 elements: 2^39 candidate splits
        # for the one pair, against a family of two members.
        p = tmp_path / "p.json"
        p.write_text(json.dumps({
            "kind": kind, "ground": list(range(40)), "vertices": vertices,
        }))
        start = time.perf_counter()
        code, out, _ = run(capsys, command[0], "--input", str(p), *command[1:])
        assert time.perf_counter() - start < 2
        assert code == 0
        # diameter reports the edge count, skeleton the edge list
        assert json.loads(out)["edges"] in (1, [[0, 1]])

    @pytest.mark.parametrize("family, n, count", [("empty", "12", 4096), ("nc", "9", 4862)])
    def test_oracle_cap_refuses_before_the_first_pair(self, tmp_path, capsys,
                                                      monkeypatch, family, n, count):
        from sspkit import oracle

        def broken(*args):
            raise AssertionError("a pair was tested past the oracle cap")

        monkeypatch.setattr(oracle, "_pair_is_edge", broken)
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", family, "--n", n, "--output", str(p))
        start = time.perf_counter()
        code, out, err = run(capsys, "skeleton", "--input", str(p), "--oracle")
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == f"error: {count} vertices exceeds the LP oracle cap of 2048\n"


class TestGoldenStdout:
    """sha256 of stdout for build, skeleton (JSON) and diameter, recorded
    from the CLI before the bit-sliced skeleton kernel and the template
    writer for edge lists; both must leave every byte as it was. The
    fourth digest pins the path walk from the first vertex to the last.

    VERIFY pins the reports of all seven suites: the four the benchmark
    runs, recorded before each suite came to import its own layers, and
    diameter-bounds, prop62 and partitions, recorded before the suites came
    to build their report dicts themselves. All seven held unchanged when
    run_suites came to build every report from the suites' check triples.

    FORMATS pins skeleton --oracle, the text and DOT forms and facets (JSON
    and text; B4 is not full-dimensional, so facets refuses it), recorded
    before the point queries came to take vertex masks and the text lines
    came to be written by one helper."""

    GOLDEN = {
        ("nc", "6", False): (
            "ac90deab0907422415a6924a6c869e25c110aa2b3e63d9f8e69294ace79611fe",
            "69bbd9eed1d83dfe2441aa2dcc4a6b1df174cd1f659b08b6eb13500da4fc9caf",
            "cea7e81d23512b27f943d63cc00a7940f81cccb1c445589b2fbe29304e744ede",
            "60c1573e4521a7bd49060a4f853c25a64c949ad2a6304b02c26cbaf7c5d3cc6a",
        ),
        ("bell", "5", False): (
            "abf65edeb7f73da8e930297cce4055e0e65089d4e38de0fd6e31c08ca1619bee",
            "faf66957b61f9932fade3100053b643ec4ece24663d657e1c32a1beed5af134a",
            "a1a74e89d5fa9545facc8cbe759a0e4756f3d2dd4507fad02fefc375ef24bdce",
            "2ddcc43924df7314a96fd50ff3c288aefc9fe6b658b4049b5168d36abd72742e",
        ),
        ("rook", "4", True): (
            "4c33b52d3826764dd13c83eded4ea7520ea7c768f691b870e09954fa1fde155f",
            "4bb18557d834dc8bb29d4d8462734e8747db89382d7e1138f0d32c0598d7c494",
            "f95759acae7f633e4c7a7378f110116d93febf0cd54bc14480030f6b275aad8a",
            "f02626b47c894f510139d21b4c4065c87949fe45757c26e92d34c7d4273e7561",
        ),
    }

    FORMATS = {
        ("nc", "6", False): {
            ("skeleton", "--oracle"):
                "02da767776487451c4835a3630fa416b557bc2b9bb5d32a07a681d09dbb3cd41",
            ("skeleton", "--format", "text"):
                "f601a2eaadaa8fe265c1a4012694119dbaf42be5ccbf8836e369b668e44457b5",
            ("skeleton", "--format", "dot"):
                "8321775484f4c08074ab53d277afc3e4bcf43cb092d8cc0402fec5448d151aa5",
            ("diameter", "--format", "text"):
                "05bd0b9c9191dc23aa9c17254d1315ab04999f8f6f9a71275310b6d8b1777073",
            ("facets",):
                "875ad27a186d958b498b1aacbab958020c7224bc2acc99cebf9d73e02c7f7202",
            ("facets", "--format", "text"):
                "3c070d6b87892bb2040c16537df59ab97351661d64192d1624c3aae4672691d9",
        },
        ("bell", "5", False): {
            ("skeleton", "--oracle"):
                "a72a8d03624e30cab0259fe308e917f9bbf89dadfb0ff42593da873b8ada7eb5",
            ("skeleton", "--format", "text"):
                "0c873d2ae3f342e34ad4a5853d9bdac58bf5c4e8326d6a22924e61ecb7742a6b",
            ("skeleton", "--format", "dot"):
                "b166e576d72732fa447f3e6820810c89ebe11b9dfa5f64553a5c4bf0b54180c5",
            ("diameter", "--format", "text"):
                "12279d5c20fd5fe3d92c64262bc7f0d9c2f18d97856330ced0932d3813c49830",
            ("facets",):
                "ca6cd32f62b7607314fe05b945d44c07b94211630c3259a92a42fd38e21f51d3",
            ("facets", "--format", "text"):
                "a2408bf383066140a5307a13ac72365da97003faa45ba6668fbd003f50819036",
        },
        ("rook", "4", True): {
            ("skeleton", "--oracle"):
                "20fae9edfa16d2c55a66bc811ae466d5571cff7a1cea2e6a26a37da9a1dd5ba9",
            ("skeleton", "--format", "text"):
                "95461ad57c0a9520ceb9108a1255e4a45e62c4ecf9817c1f74767dd2540a32ec",
            ("skeleton", "--format", "dot"):
                "dc540044a972e9e2e01c5e2bb2fe0fe78b4514859798af3414f8e9741a09164f",
            ("diameter", "--format", "text"):
                "f4ca0969b713aa0a4eb17189b0394c66ba40013ea657de0c530664b7eb4c3b97",
        },
    }

    VERIFY = {
        "remark43": (
            (), "85b6ddff522733978da26243f6be3e83f8284aa81705cdd6ad89ee7a205e0432"
        ),
        "matroid-E": (
            (), "2e8f2be6988ddb4ae4671f4e2b0471cdd5583e33f1dabd79573e1b64a83f1015"
        ),
        "oracle-vs-E": (
            ("--seed", "3", "--graphs", "100", "--max-n", "5"),
            "4d3b78a226b0e7699508e78b32667c08fbbd71451d20529d9351a659685cf9cf",
        ),
        "facets-always": (
            ("--seed", "3", "--graphs", "100", "--max-n", "6"),
            "1e1d4298dcc4b66b69247562ae81939e34536de13d222fd85be676ee609cb7e4",
        ),
        "diameter-bounds": (
            ("--seed", "3", "--graphs", "60", "--max-n", "6"),
            "c4e96095f36819e1e52a08d5071a188e832d153975e9aa60b4154752c680f9db",
        ),
        "prop62": (
            ("--seed", "3", "--graphs", "100", "--max-n", "6"),
            "0a1d3a2e6bdff5b1ae4641b02040198c0196ed42fbacaf10d466ad70a2371509",
        ),
        "partitions": (
            ("--max-n", "6"),
            "6e219c29130181c8327eb99f1211c2bc43f64eada3280f49362eabad5d8d3083",
        ),
    }

    # FILES pins outputs from input files, recorded before skeletons came to
    # be held and written as neighbour rows:
    # string labels JSON must escape (a quote, a backslash, a tab, non-ASCII),
    # tuple labels written as nested arrays, the two matroid polytopes of
    # U(4, 2), and one vertex and no edge.
    RELATION = {"labels": ["a\"b", "c\\d", "e\tf", "été", 7],
                "pairs": [["a\"b", "c\\d"], ["c\\d", "e\tf"],
                          ["été", 7], ["a\"b", 7]]}
    CHAIN = {"labels": [[1, 2], [1, 3], [2, 3], "x", [[0], "y"]],
             "less_than": [[[1, 2], [1, 3]], [[1, 3], [2, 3]], ["x", [[0], "y"]]]}
    FILES = {
        "relation": {
            "build": "0e6bc6bc7d4a1a9cede2d518c93ea40c25e9d940be55fdf989404c40cc80d4da",
            "skeleton": "fa72f08038c285751953e97103d664bae133e05d74a7147ec6a18484ae66f643",
            "dot": "d88517d95af60dbde8678e29f394eb39a224fba94fa27ab0c218485d59fda561",
            "diameter": "546b4f2cf1905f697c5adfbe10f235d610793e706eae766d65505873787e722c",
        },
        "chain": {
            "build": "b57b3e64aac5beeb6e186386fd696948e139f1339c7543b40135f60382df4e78",
            "skeleton": "655fa43d7e251a18e218faae02f4dbee9e952978eca64db528f3aecb009f5d68",
            "dot": "4f6acc7005c3a52bb7a3b8c146dea019a278303205a26fd9e43c86906aae9370",
            "diameter": "24192b216f6ec38d1eb73dcdd5304575b9ba23fdb25741ae60f224e63468da5b",
        },
        "independence": {
            "skeleton": "bfe5b73d6707b71dd180dbb0277feb4244cb026081bee039f321206f11442362",
        },
        "bases": {
            "skeleton": "187682eb10bb2d515b64415ec880c0543bd181965b51174e360dc605312265a8",
        },
        "one-vertex": {
            "skeleton": "56f13771348cc2e48e17fbcbdf0b647c9146b4fd07470f25c5ff18292ba17a25",
        },
    }

    # MATROIDS pins `build --family matroid` (independence polytope, then
    # --birkhoff's bases) on each catalog spec, on U(10, 5), and on an
    # explicit U(3, 2) that lists {1} twice and its sets out of order;
    # CLOSED_CHAIN pins `build --family chain` on a relation whose closure
    # adds 1 < 3. Recorded before the Matroid and Poset types gave way to
    # the polytope and the comparability graph built from them.
    MATROIDS = {
        "uniform-1-3": (
            "fba42326c1897864225f8eb905f7db9c9187b1a536ec8bf662d6000c772163eb",
            "1b5a606bfca9c2677af19ef1ff716607173a677f55df39c40aaadabbf84f19dd",
        ),
        "uniform-2-4": (
            "82cc24661ff54a71253e51af825d93142f316c738aea651d05768ef82db98747",
            "cc073ddaedd66ff2a4abecf7f4b24700e7ac58363f192dc33846411577c982cb",
        ),
        "uniform-2-5": (
            "0582e2be3f4503b6d1713d83dfa633bdbe6b087b38c2aa6cc187726b1fbcb00a",
            "ebabebe9989c09ba7277da2b414aff58e142f6838701659626a516f15dc1ffc8",
        ),
        "partition-2-3": (
            "29a8d9f32142f0851b25b1d84c76709822c9e29845b32dce19ce2afeae3de4bf",
            "f80978be00be3364a5ec9fbf0c11064f0654963636453d889ac5af6ef8b15a0e",
        ),
        "graphic-k4": (
            "73734fb868eb832db0472a80e72d5e450faafe8aa459f8d555e53cd7d9567d45",
            "21a15f36453e677e992d84c99ba823d9f8908f92f0cc7762bafc6921c7562790",
        ),
        "uniform-5-10": (
            "f80731beb82323aaf0859a0fcae94ecdc097674da55cbf7eba1ef9bb64f04d6a",
            "4b4419735fcb64316427e28d2e99df6fc7d0ebada47cbc3682ac7f99e472f530",
        ),
        "explicit": (
            "15c36762ef19e39e741f171fb99c0643b3877eb711e554a120834ae165a4016b",
            "cc34fcc3a928cc740f8f1a36c0a9e08d64b73c88b808383b114bb884c4a546c8",
        ),
    }
    MATROID_SPECS = {
        **MATROID_CATALOG,
        "uniform-5-10": {"uniform": [10, 5]},
        "explicit": {"ground": [3, 1, 2], "independents": [
            [1, 2], [], [3], [2, 3], [1], [3, 1], [2], [1]]},
    }
    CLOSED_CHAIN = (
        {"labels": [1, 2, 3, 4], "less_than": [[1, 2], [2, 3], [1, 4]]},
        "2da61dc31abfcd182845ef3eedc836c9e5c8fbbe1641dd215ec5f03dbb71646f",
    )

    def test_matroid_specs_cover_the_catalog(self):
        assert list(self.MATROIDS) == list(self.MATROID_SPECS)

    @pytest.mark.parametrize("name", list(MATROIDS))
    def test_matroid_build_digests(self, tmp_path, capsys, name):
        inp = tmp_path / "m.json"
        inp.write_text(json.dumps(self.MATROID_SPECS[name]), encoding="utf-8")
        digests = []
        for extra in ([], ["--birkhoff"]):
            code, out, _ = run(capsys, "build", "--family", "matroid",
                               "--input", str(inp), *extra)
            assert code == 0
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert tuple(digests) == self.MATROIDS[name]

    def test_closed_chain_build_digest(self, tmp_path, capsys):
        relation, digest = self.CLOSED_CHAIN
        inp = tmp_path / "c.json"
        inp.write_text(json.dumps(relation), encoding="utf-8")
        code, out, _ = run(capsys, "build", "--family", "chain", "--input", str(inp))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("name", list(FILES))
    def test_file_digests(self, tmp_path, capsys, name):
        def out_of(*argv):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            return out

        inp = tmp_path / "in.json"
        if name in ("relation", "chain"):
            inp.write_text(json.dumps(getattr(self, name.upper())), encoding="utf-8")
            built = out_of("build", "--family", name, "--input", str(inp))
        elif name == "one-vertex":
            built = json.dumps({"kind": "raw", "ground": ["a"], "vertices": [["a"]]})
        else:
            inp.write_text(json.dumps({"uniform": [4, 2]}), encoding="utf-8")
            built = out_of("build", "--family", "matroid", "--input", str(inp),
                           *(["--birkhoff"] if name == "bases" else []))
        path = tmp_path / "p.json"
        path.write_text(built, encoding="utf-8")
        skel = out_of("skeleton", "--input", str(path))
        outs = {"build": built, "skeleton": skel}
        if "dot" in self.FILES[name]:
            outs["dot"] = out_of("skeleton", "--input", str(path), "--format", "dot")
            outs["diameter"] = out_of("diameter", "--input", str(path))
        digests = {key: hashlib.sha256(outs[key].encode("utf-8")).hexdigest()
                   for key in self.FILES[name]}
        assert digests == self.FILES[name]

    # COUNTED pins skeleton and diameter on files that condition E decides
    # by tallying sums over all pairs, with each file's edge count out of
    # its vertex pairs: the maximal stable sets of the Remark 4.3 graph (all
    # 66 pairs pass the test there) and the cut cube as raw files, U(6, 3)
    # independence and bases, and 100 seeded subsets of a 7-element set.
    # Recorded before the tally replaced the split search per pair.
    COUNTED = {
        "remark-maximal": (66, 66, (
            "a8de89e46dda34c212bf294e142cd34c94633987dd5e743d03e674474f4e1b14",
            "5854209248787edc89801ace9f57e89debd8ba163cb65d8141a2b412d162846e",
        )),
        "modified-cube": (12, 21, (
            "cb5b71290d46c2cfdfeaeb6564ce4094a260873b0e2056b5d08a48af02b3bb67",
            "333a5b7a45c725b7c1c0fbabbbe8dc3e6afee67549e218ab7cc26c04e68a8083",
        )),
        "u63-independence": (186, 861, (
            "a70f31e12fa2115e8f61573be610771f44d89164193ea785b696e3f240d4faa5",
            "908b8df4316794a472bdaf30a9cec4bbd7e4e729e95e2526aad1a502ec7019c2",
        )),
        "u63-bases": (90, 190, (
            "c550db1bfb62c913c5d20ee6fb95e0e1f418d11bb6496a3ba66bd2a40c03e1fc",
            "a1ad0d5880949c46b07ee50d29bab358a1b12d007d8f4b7c690139c6f8b3cea5",
        )),
        "raw-100-of-7": (662, 4950, (
            "cb8c9c5fa318063e982aa175c5b39aa29c5c99830c62e4790edcb39eda1be1f8",
            "a0820b8ca5a64af1c2fdf5268aceb9e47fc593e94704cd8ef7326b4a14cced6c",
        )),
    }

    @staticmethod
    def counted_file(tmp_path, capsys, name):
        if name.startswith("u63"):
            spec = tmp_path / "m.json"
            spec.write_text(json.dumps({"uniform": [6, 3]}), encoding="utf-8")
            birkhoff = ["--birkhoff"] if name == "u63-bases" else []
            code, out, _ = run(capsys, "build", "--family", "matroid",
                               "--input", str(spec), *birkhoff)
            assert code == 0
            return out
        if name == "remark-maximal":
            p = maximal_family_polytope(remark_graph())
        elif name == "modified-cube":
            p = modified_cube()
        else:
            masks = random.Random(7).sample(range(1 << 7), 100)
            p = ZeroOnePolytope(GroundSet(range(1, 8)), masks, "raw")
        return dumps(polytope_to_json(p))

    @pytest.mark.parametrize("name", list(COUNTED))
    def test_counted_digests(self, tmp_path, capsys, name):
        path = tmp_path / "p.json"
        path.write_text(self.counted_file(tmp_path, capsys, name), encoding="utf-8")
        outs = []
        for command in ("skeleton", "diameter"):
            code, out, _ = run(capsys, command, "--input", str(path))
            assert code == 0
            outs.append(out)
        nv = len(json.loads(path.read_text(encoding="utf-8"))["vertices"])
        edges, pairs, want = self.COUNTED[name]
        assert (len(json.loads(outs[0])["edges"]), nv * (nv - 1) // 2) == (edges, pairs)
        digests = tuple(hashlib.sha256(o.encode("utf-8")).hexdigest() for o in outs)
        assert digests == want

    # FACETS pins facets (JSON, then text) on files whose kind carries no
    # graph: matroid independence polytopes built from a spec, the cut cube
    # as a raw file, and nc6's file relabelled raw with its graph removed,
    # which must read as the stable-set file does. Recorded before a
    # facet's class came to be read off its row alone.
    FACET_SPECS = {
        "u42": {"uniform": [4, 2]},
        "u63": {"uniform": [6, 3]},
        "partition-2-3": MATROID_CATALOG["partition-2-3"],
        "graphic-k4": MATROID_CATALOG["graphic-k4"],
    }
    FACETS = {
        "u42": (
            "bb4b2e3ab2a7e49413d8b41006bdfd7aecfd37ebf219b2f152887cfc023b311a",
            "27b19b27ae453c0e8c08908f5854e53e122c4e01ad213b226f0507225aa91ef9",
        ),
        "u63": (
            "e2c9e082268b0d0770750e682adc136bb9996464cac6279a075634b2cc167802",
            "3ab4ddea8517a36aaa3378fb40b6bf716ea12ce1790412248edec2373ad7b1ea",
        ),
        "partition-2-3": (
            "0b023b80e94902e46fd9c4c35d24761b26d5bb5a9f2328c30697aac5ff4e5453",
            "7927bd7feefb8e22484ce996d892515c1a61f473f105cc85ae22e535382981f0",
        ),
        "graphic-k4": (
            "f2e53e12cdfec58343f3322485eaaa37beb0bd248fe62194754599ba84f043ca",
            "deba777af7f5326962094253388e035dd65107a30ea8563e73efba7ec42b5baf",
        ),
        "modified-cube": (
            "78015efcfa03ff214571c09ec729887c2de6aa3945a1d45a70d833e35b9e6825",
            "1a7ba07abfd29fe3b9030faa8c8dc370f11699813a63cc8f772a921761fcf440",
        ),
        "raw-nc6": (
            FORMATS["nc", "6", False]["facets",],
            FORMATS["nc", "6", False]["facets", "--format", "text"],
        ),
    }

    @classmethod
    def facets_file(cls, tmp_path, capsys, name):
        if name == "modified-cube":
            return dumps(polytope_to_json(modified_cube()))
        if name == "raw-nc6":
            code, out, _ = run(capsys, "build", "--family", "nc", "--n", "6")
            assert code == 0
            obj = json.loads(out)
            del obj["graph"]
            return dumps({**obj, "kind": "raw"})
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(cls.FACET_SPECS[name]), encoding="utf-8")
        code, out, _ = run(capsys, "build", "--family", "matroid", "--input", str(spec))
        assert code == 0
        return out

    @pytest.mark.parametrize("name", list(FACETS))
    def test_facets_digests(self, tmp_path, capsys, name):
        path = tmp_path / "p.json"
        path.write_text(self.facets_file(tmp_path, capsys, name), encoding="utf-8")
        outs = []
        for extra in ([], ["--format", "text"]):
            code, out, _ = run(capsys, "facets", "--input", str(path), *extra)
            assert code == 0
            outs.append(out)
        digests = tuple(hashlib.sha256(o.encode("utf-8")).hexdigest() for o in outs)
        assert digests == self.FACETS[name]

    @pytest.mark.parametrize("suite", list(VERIFY))
    def test_verify_digests(self, capsys, suite):
        extra, digest = self.VERIFY[suite]
        code, out, _ = run(capsys, "verify", "--suite", suite, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @staticmethod
    def build(tmp_path, capsys, family, n, birkhoff):
        argv = ["build", "--family", family, "--n", n]
        code, built, _ = run(capsys, *argv, *(["--birkhoff"] if birkhoff else []))
        assert code == 0
        path = tmp_path / "p.json"
        path.write_text(built, encoding="utf-8")
        return built, path

    @pytest.mark.parametrize("family, n, birkhoff", list(GOLDEN), ids=["nc6", "bell5", "B4"])
    def test_stdout_digests(self, tmp_path, capsys, family, n, birkhoff):
        built, path = self.build(tmp_path, capsys, family, n, birkhoff)
        verts = json.loads(built)["vertices"]
        ends = ["--from", json.dumps(verts[0]), "--to", json.dumps(verts[-1])]
        outs = [built]
        for command, extra in (("skeleton", []), ("diameter", []), ("path", ends)):
            code, out, _ = run(capsys, command, "--input", str(path), *extra)
            assert code == 0
            outs.append(out)
        digests = tuple(hashlib.sha256(o.encode("utf-8")).hexdigest() for o in outs)
        assert digests == self.GOLDEN[family, n, birkhoff]

    @pytest.mark.parametrize("family, n, birkhoff", list(FORMATS), ids=["nc6", "bell5", "B4"])
    def test_format_digests(self, tmp_path, capsys, family, n, birkhoff):
        _, path = self.build(tmp_path, capsys, family, n, birkhoff)
        for (command, *extra), digest in self.FORMATS[family, n, birkhoff].items():
            code, out, _ = run(capsys, command, "--input", str(path), *extra)
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (command, *extra)


class TestDiameterCmd:
    def test_report(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "empty", "--n", "3",
            "--output", str(p))
        code, out, _ = run(capsys, "diameter", "--input", str(p))
        assert code == 0
        data = json.loads(out)
        assert data["diameter"] == 3
        assert data["rank"] == 3
        assert data["bound_holds"] is True

    def test_non_integer_rank_is_error(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "bell", "--n", "3",
            "--output", str(p))
        data = json.loads(p.read_text())
        data["rank"] = "x"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "diameter", "--input", str(p))
        assert code == 2
        assert "rank" in err and "Traceback" not in err

    @pytest.mark.parametrize("rank", [1, -3])
    @pytest.mark.parametrize(
        "command",
        [["diameter"], ["path", "--from", "[]", "--to", "[[1, 2]]"]],
        ids=["diameter", "path"],
    )
    def test_wrong_rank_is_error(self, tmp_path, capsys, command, rank):
        # nc5's largest stable set has 4 elements, so a file claiming any
        # other rank would misreport the diameter bound
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "nc", "--n", "5",
            "--output", str(p))
        data = json.loads(p.read_text())
        data["rank"] = rank
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, command[0], "--input", str(p), *command[1:])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestFacetsCmd:
    def test_bell3_classification(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "bell", "--n", "3",
            "--output", str(p))
        code, out, _ = run(capsys, "facets", "--input", str(p))
        assert code == 0
        data = json.loads(out)
        assert len(data["facets"]) == 5
        assert data["classification"] == {
            "nonnegativity": 3, "clique": 2, "other": 0,
        }

    def test_cap_errors_cleanly(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "bell", "--n", "3",
            "--output", str(p))
        code, _, err = run(capsys, "facets", "--input", str(p),
                           "--facet-vertex-cap", "2")
        assert code == 2
        assert "error" in err

    def test_nc7_at_default_caps(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "nc", "--n", "7",
            "--output", str(p))
        code, out, _ = run(capsys, "facets", "--input", str(p),
                           "--format", "text")
        assert code == 0
        assert out == "facets 65 nonnegativity 21 clique 32 other 12\n"

    def test_a_graph_the_kind_does_not_use_changes_nothing(self, tmp_path, capsys):
        # a raw file's graph field is ignored, so it names no facet's class
        bare = json.loads(TestGoldenStdout.facets_file(tmp_path, capsys, "raw-nc6"))
        p = tmp_path / "p.json"
        outs = []
        for obj in ({**bare, "graph": {"edges": [[[1, 2], [3, 4]]]}}, bare):
            p.write_text(dumps(obj), encoding="utf-8")
            code, out, _ = run(capsys, "facets", "--input", str(p),
                               "--format", "text")
            assert code == 0
            outs.append(out)
        assert outs == ["facets 32 nonnegativity 15 clique 16 other 1\n"] * 2

    def test_a_raw_file_ignores_a_graph_on_unknown_labels(self, tmp_path, capsys):
        bare = json.loads(TestGoldenStdout.facets_file(tmp_path, capsys, "raw-nc6"))
        p = tmp_path / "p.json"
        outs = []
        for obj in ({**bare, "graph": {"edges": [[[1, 2], "nowhere"]]}}, bare):
            p.write_text(dumps(obj), encoding="utf-8")
            for cmd in ("skeleton", "diameter", "facets"):
                code, out, err = run(capsys, cmd, "--input", str(p))
                assert code == 0, err
                outs.append(out)
        assert outs[:3] == outs[3:]

    @pytest.mark.parametrize(
        "family, n, message",
        [
            ("complete", "29", "ambient dimension 29 exceeds the facet "
                               "enumeration cap of 28"),
            ("empty", "11", "2048 vertices exceeds the facet enumeration "
                            "cap of 1500"),
        ],
        ids=["dimension", "vertices"],
    )
    def test_default_caps_refuse(self, tmp_path, capsys, family, n, message):
        p = tmp_path / "p.json"
        code, _, _ = run(capsys, "build", "--family", family, "--n", n,
                         "--output", str(p))
        assert code == 0
        code, out, err = run(capsys, "facets", "--input", str(p))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestPathCmd:
    def test_stable_set_walk(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "bell", "--n", "3",
            "--output", str(p))
        code, out, _ = run(
            capsys, "path", "--input", str(p),
            "--from", "[[1, 3]]", "--to", "[[1, 2], [2, 3]]",
        )
        assert code == 0
        data = json.loads(out)
        assert data["edges_valid"] is True
        assert data["within_bound"] is True
        assert data["hops"] <= 2

    def test_across_complete_bipartite_k14_14(self, tmp_path, capsys):
        # 2^14 + 2^14 - 1 = 32767 stable sets, under the cap; the walk is
        # one hop over a 28-element difference.
        rel, p = tmp_path / "rel.json", tmp_path / "p.json"
        rel.write_text(json.dumps({
            "labels": list(range(28)),
            "pairs": [[i, j] for i in range(14) for j in range(14, 28)],
        }))
        code, _, _ = run(capsys, "build", "--family", "relation",
                         "--input", str(rel), "--output", str(p))
        assert code == 0
        start = time.perf_counter()
        code, out, _ = run(capsys, "path", "--input", str(p),
                           "--from", json.dumps(list(range(14))),
                           "--to", json.dumps(list(range(14, 28))))
        assert time.perf_counter() - start < 5
        assert code == 0
        data = json.loads(out)
        assert data["hops"] == 1 and data["edges_valid"] is True

    def test_nonvertex_endpoint_is_error(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "bell", "--n", "3",
            "--output", str(p))
        code, _, err = run(
            capsys, "path", "--input", str(p),
            "--from", "[[1, 2], [1, 3]]", "--to", "[]",
        )
        assert code == 2
        assert err == "error: endpoints must be vertices of the polytope\n"


    def test_matroid_kind_is_error(self, tmp_path, capsys):
        mj, p = tmp_path / "m.json", tmp_path / "p.json"
        mj.write_text(json.dumps({"uniform": [4, 2]}))
        run(capsys, "build", "--family", "matroid", "--input", str(mj),
            "--output", str(p))
        code, out, err = run(capsys, "path", "--input", str(p),
                             "--from", "[]", "--to", "[1]")
        assert code == 2 and out == ""
        assert err == "error: path needs a stable-set or birkhoff polytope\n"

    @pytest.mark.parametrize("endpoint", ["5", "null", '"x"', '{"a": 1}'])
    @pytest.mark.parametrize("side", ["--from", "--to"])
    def test_endpoint_not_a_list_is_error(self, tmp_path, capsys, side, endpoint):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "nc", "--n", "5", "--output", str(p))
        args = {"--from": "[]", "--to": "[]"}
        args[side] = endpoint
        code, out, err = run(capsys, "path", "--input", str(p),
                             "--from", args["--from"], "--to", args["--to"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "JSON list" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestVerifyCmd:
    def test_partitions_suite_passes(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        code, _, err = run(
            capsys, "verify", "--suite", "partitions",
            "--output", str(rep),
        )
        assert code == 0
        data = json.loads(rep.read_text())
        assert data["passed"] is True
        assert "suite partitions: pass" in err

    def test_small_corpus_suites(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle-vs-E",
            "--graphs", "10", "--max-n", "4",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize(
        "suite, option",
        [("oracle-vs-E", "--graphs"), ("partitions", "--max-n")],
    )
    def test_suite_without_checks_fails(self, capsys, suite, option):
        code, out, err = run(capsys, "verify", "--suite", suite, option, "0")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False
        assert data["reports"][0]["checks"] == []
        assert f"suite {suite}: FAIL" in err

    @pytest.mark.parametrize(
        "suite, option, value",
        [("oracle-vs-E", "--graphs", "-1"), ("partitions", "--max-n", "-3")],
    )
    def test_negative_size_is_bad_input(self, capsys, suite, option, value):
        code, out, err = run(capsys, "verify", "--suite", suite, option, value)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "negative" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("suite", ["oracle-vs-E", "all"])
    def test_corpus_needs_max_n_two(self, capsys, suite):
        # even with no graphs to draw, a corpus suite refuses --max-n below 2
        for graphs in ("0", "5"):
            code, out, err = run(capsys, "verify", "--suite", suite,
                                 "--graphs", graphs, "--max-n", "1")
            assert code == 2 and out == ""
            assert err == "error: corpus needs max_n >= 2\n"

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nope"])

    def test_invalid_always_facet_inequality_fails(self, capsys, monkeypatch):
        """is_facet refuses an inequality that a vertex violates; the
        facets-always suite counts that as a failed check (exit 1), not as
        bad input."""
        from sspkit import geometry

        def one_invalid(g):  # each singleton {v} gives 1 > 0
            return [geometry.Inequality((1,) * g.n, 0)]

        monkeypatch.setattr(geometry, "always_facet_inequalities", one_invalid)
        code, out, err = run(capsys, "verify", "--suite", "facets-always",
                             "--graphs", "3", "--max-n", "3")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False
        checks = data["reports"][0]["checks"]
        graphs = [c for c in checks if c["name"].startswith("graph-")]
        assert len(graphs) == 3 and not any(c["passed"] for c in graphs)
        assert err.startswith("suite facets-always: FAIL")
        assert "Traceback" not in err and "error" not in err


def subsets_by_size(n, count):
    """The first count subsets of 1..n, smallest first, as label lists."""
    ground = range(1, n + 1)
    fam = [list(c) for k in range(n + 1) for c in combinations(ground, k)]
    return fam[:count]


class TestSubsetInputs:
    """A label listed twice in one subset, and a family not read off a graph
    past the 1024-set cap, are bad input: exit 2, one line, refused before
    any quadratic work starts."""

    @staticmethod
    def refused(capsys, *argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        return err

    def test_raw_vertex_with_a_repeated_label(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"kind": "raw", "ground": [1, 2], "vertices": [[1, 1]]}))
        err = self.refused(capsys, "skeleton", "--input", str(p))
        assert err == "error: label 1 listed twice in one subset\n"

    def test_path_endpoint_with_a_repeated_label(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "nc", "--n", "5", "--output", str(p))
        err = self.refused(capsys, "path", "--input", str(p),
                           "--from", "[[1, 3], [1, 3]]", "--to", "[]")
        assert err == "error: label (1, 3) listed twice in one subset\n"

    def test_independent_set_with_a_repeated_label(self, tmp_path, capsys):
        mj = tmp_path / "m.json"
        mj.write_text(json.dumps({"ground": [1, 2], "independents": [[], [1], [2, 2]]}))
        err = self.refused(capsys, "build", "--family", "matroid", "--input", str(mj))
        assert err == "error: label 2 listed twice in one subset\n"

    @pytest.mark.parametrize("kind", ["raw", "matroid-independence", "matroid-bases"])
    @pytest.mark.parametrize(
        "command", [["skeleton"], ["skeleton", "--oracle"], ["diameter"]],
        ids=["skeleton", "oracle", "diameter"],
    )
    def test_polytope_file_past_the_cap(self, tmp_path, capsys, kind, command):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({
            "kind": kind, "ground": list(range(1, 12)),
            "vertices": subsets_by_size(11, 1025),
        }))
        err = self.refused(capsys, *command, "--input", str(p))
        assert err == "error: field 'vertices' lists more than 1024 sets\n"

    def test_explicit_matroid_past_the_cap(self, tmp_path, capsys):
        mj = tmp_path / "m.json"
        mj.write_text(json.dumps({
            "ground": list(range(1, 12)), "independents": subsets_by_size(11, 1025),
        }))
        err = self.refused(capsys, "build", "--family", "matroid", "--input", str(mj))
        assert err == "error: field 'independents' lists more than 1024 sets\n"


class TestMatroidAxiomsOnRead:
    """A matroid-independence file is held to the matroid axioms as it is
    read, by the rule `build --family matroid` applies to a spec. The
    stable sets of the path 1-2-3 are down-closed but fail (I3): {2}
    cannot grow into {1, 3}."""

    PATH_STABLE_SETS = [[], [1], [2], [3], [1, 3]]
    MESSAGE = "error: independence axioms fail: I3 with witness [(2,), (1, 3)]\n"

    @pytest.mark.parametrize(
        "command", [["skeleton"], ["skeleton", "--oracle"], ["diameter"], ["facets"]],
        ids=["skeleton", "oracle", "diameter", "facets"],
    )
    def test_down_closed_non_matroid_file(self, tmp_path, capsys, command):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"kind": "matroid-independence", "ground": [1, 2, 3],
                                 "vertices": self.PATH_STABLE_SETS}))
        code, out, err = run(capsys, *command, "--input", str(p))
        assert (code, out, err) == (2, "", self.MESSAGE)

    def test_same_message_as_the_builder(self, tmp_path, capsys):
        mj = tmp_path / "m.json"
        mj.write_text(json.dumps({"ground": [1, 2, 3],
                                  "independents": self.PATH_STABLE_SETS}))
        code, out, err = run(capsys, "build", "--family", "matroid", "--input", str(mj))
        assert (code, out, err) == (2, "", self.MESSAGE)


@pytest.fixture(scope="module")
def nc6(tmp_path_factory):
    path = tmp_path_factory.mktemp("nc6") / "nc6.json"
    assert main(["build", "--family", "nc", "--n", "6", "--output", str(path)]) == 0
    return str(path)


def python(*args, **kwargs):
    """A child interpreter on this checkout's sources, with stdout buffered
    as a shell runs it (PYTHONUNBUFFERED unset)."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def _choices(command, option):
    return list(COMMANDS[command][2][option][1])


class TestParser:
    """The option table spells its choices out so that parsing imports
    neither families, geometry nor verify; they must stay equal to the
    tables they name, and its facet caps to enumerate_facets' defaults."""

    def test_family_choices(self):
        assert _choices("build", "--family") == sorted(FAMILY_BUILDERS) + [
            "relation", "chain", "matroid",
        ]

    def test_suite_choices(self):
        assert _choices("verify", "--suite") == sorted(SUITES) + ["all"]

    def test_facet_caps(self):
        params = inspect.signature(enumerate_facets).parameters
        options = COMMANDS["facets"][2]
        assert options["--facet-vertex-cap"][0] == params["vertex_cap"].default
        assert options["--facet-dim-cap"][0] == params["dim_cap"].default

    @pytest.mark.parametrize(
        "argv", [["build", "--family", "nope", "--n", "3"], ["verify", "--suite", "x"]]
    )
    def test_bad_choice_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "sspkit: error: the following arguments are required: command"),
            (["nope"], "sspkit: error: argument command: invalid choice: 'nope'"),
            (["--input", "p.json"], "sspkit: error: argument command: invalid choice"),
            (["diameter", "--input", "p.json", "--bogus"],
             "sspkit diameter: error: unrecognized arguments: --bogus"),
            (["diameter", "--inp", "p.json"],
             "sspkit diameter: error: unrecognized arguments: --inp"),
            (["diameter", "--input"], "sspkit diameter: error: argument --input: expected one argument"),
            (["build", "--family", "nc", "--n", "x"],
             "sspkit build: error: argument --n: invalid int value: 'x'"),
            (["build", "--family", "nc", "--n="], "sspkit build: error: argument --n: invalid int value: ''"),
            (["skeleton", "--input", "p.json", "--format", "svg"],
             "sspkit skeleton: error: argument --format: invalid choice: 'svg'"),
            (["skeleton", "--input", "p.json", "--oracle=yes"],
             "sspkit skeleton: error: unrecognized arguments: --oracle=yes"),
            (["path", "--input", "p.json"],
             "sspkit path: error: the following arguments are required: --from, --to"),
            (["diameter", "--input", "p.json", "stray"],
             "sspkit diameter: error: unrecognized arguments: stray"),
            (["export-dot", "--input", "x.json"],
             "sspkit: error: argument command: invalid choice: 'export-dot'"),
        ],
        ids=["empty", "command", "option-first", "option", "prefix", "missing-value",
             "int", "empty-int", "choice", "flag-value", "required", "stray",
             "export-dot"],
    )
    def test_usage_error_exits_2(self, capsys, argv, message):
        """Each usage error exits 2 before any file is read: usage on
        stderr, then one error line, and nothing on stdout."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: sspkit") and "error:" not in usage
        assert error.startswith(message)

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"]] + [[c, "-h"] for c in COMMANDS] + [["path", "--help"]]
    )
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bogus"])  # help comes first, as the option is read
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: sspkit") and err == ""
        for command in COMMANDS if len(argv) == 1 else []:
            assert f"\n  {command} " in out

    def test_spellings(self):
        fn, args = _parse(["verify", "--suite=all", "--seed", "-1", "--graphs=-2"])
        assert fn is COMMANDS["verify"][0]
        assert (args.suite, args.seed, args.graphs, args.max_n) == ("all", -1, -2, 6)
        _, args = _parse(["path", "--input", "-p.json", "--from", "[]", "--to=[[1, 2]]"])
        assert (args.input, args.frm, args.to, args.output) == ("-p.json", "[]", "[[1, 2]]", None)
        _, args = _parse(["skeleton", "--input", "a", "--oracle", "--input", "b"])
        assert (args.input, args.oracle, args.format) == ("b", True, "json")

    def test_defaults(self):
        _, args = _parse(["facets", "--input", "p.json"])
        assert vars(args) == {
            "input": "p.json", "facet_vertex_cap": 1500, "facet_dim_cap": 28,
            "format": "json", "output": None,
        }
        _, args = _parse(["build", "--family", "rook"])
        assert vars(args) == {
            "family": "rook", "n": None, "input": None, "birkhoff": False, "output": None,
        }


class TestConsoleScript:
    """The [project.scripts] entry in pyproject.toml names cli.main, and
    the script an install makes from it runs: `sspkit --help` exits 0."""

    def test_entry_point_runs_help(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["sspkit"]
        assert EntryPoint("sspkit", spec, "console_scripts").load() is main
        script = (
            "import sys; from importlib.metadata import EntryPoint; "
            "sys.argv = ['sspkit', '--help']; "
            f"sys.exit(EntryPoint('sspkit', {spec!r}, 'console_scripts').load()())"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: sspkit ")


class TestClosedStdout:
    """A stdout whose reader is gone keeps the exit contract: exit 2 and
    one error line, for output short enough to sit in the buffer until
    the end (diameter, bell3, the verify report, help) and for output long
    enough to be written at once (nc6's polytope and skeleton). The child
    writes into a pipe whose read end is already closed."""

    PIPE_ERROR = f"error: [Errno {errno.EPIPE}] Broken pipe"

    def run_closed(self, *argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = python("-m", "sspkit.cli", *argv, stdout=write_end,
                          stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        return proc.returncode, proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["diameter", "--input", "{nc6}"], ["build", "--family", "bell", "--n", "3"],
         ["build", "--family", "nc", "--n", "6"], ["skeleton", "--input", "{nc6}"],
         ["--help"], ["skeleton", "-h"]],
        ids=["diameter", "build-bell3", "build-nc6", "skeleton", "help", "skeleton-help"],
    )
    def test_one_error_line(self, nc6, argv):
        code, err = self.run_closed(*(a.format(nc6=nc6) for a in argv))
        assert (code, err) == (2, self.PIPE_ERROR + "\n")

    def test_verify_reports_before_the_error(self):
        code, err = self.run_closed("verify", "--suite", "remark43")
        assert code == 2
        assert err.splitlines() == ["suite remark43: pass", self.PIPE_ERROR]


class TestProgramRun:
    """main() run as the program freezes the collector once its output is
    flushed, so the collections CPython runs at exit skip every object
    alive then; main(argv), as the tests and perfbench's traced mode call
    it, leaves the collector alone. In-process tests never reach
    interpreter shutdown, so the program path also runs in dev mode, with
    unclosed files an error: its stderr and bytes must be what they are."""

    @pytest.mark.parametrize(
        "argv, code",
        [(["skeleton", "--input", "{nc6}"], 0), (["verify", "--suite", "remark43"], 0),
         (["diameter", "--input", "{nc6}.missing"], 2)],
        ids=["skeleton", "verify", "exit-2"],
    )
    def test_in_process_call_leaves_the_collector(self, capsys, nc6, argv, code):
        frozen = gc.get_freeze_count()
        assert main([a.format(nc6=nc6) for a in argv]) == code
        assert gc.get_freeze_count() == frozen

    def test_program_freezes_the_collector(self):
        script = (
            "import gc, sys; from sspkit.cli import main; "
            "sys.argv = ['sspkit', 'build', '--family', 'bell', '--n', '3']; "
            "before = gc.get_freeze_count(); code = main(); "
            "print(before, gc.get_freeze_count(), file=sys.stderr); sys.exit(code)"
        )
        proc = python("-c", script, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stderr.split())
        assert after > before  # 3.12 starts with some objects frozen

    @pytest.mark.parametrize(
        "argv, err",
        [(["skeleton", "--input", "{nc6}"], ""),
         (["build", "--family", "nc", "--n", "6", "--output", "{out}"], ""),
         (["verify", "--suite", "remark43"], "suite remark43: pass\n")],
        ids=["skeleton", "build-output", "verify"],
    )
    def test_dev_mode(self, tmp_path, capsys, nc6, argv, err):
        out = tmp_path / "out.json"
        argv = [a.format(nc6=nc6, out=out) for a in argv]
        proc = python("-X", "dev", "-W", "error::ResourceWarning", "-m", "sspkit.cli",
                      *argv, capture_output=True)
        assert (proc.returncode, proc.stderr.decode()) == (0, err)
        stdout = proc.stdout
        if "--output" in argv:  # the file holds the stdout route's bytes
            assert stdout == b""
            stdout, argv = out.read_bytes(), argv[:-2]
        assert main(argv) == 0
        assert stdout == capsys.readouterr().out.encode()
