"""End-to-end CLI runs against temp files; exit codes are part of the
contract (0 all-pass, 1 failed verification, 2 bad input)."""

import json
import time

import pytest

from sspkit.cli import main


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
        ],
        ids=["uniform-30-15", "partition-30-blocks", "graphic-k6"],
    )
    def test_oversized_matroid_is_error(self, tmp_path, capsys, payload):
        mj = tmp_path / "m.json"
        mj.write_text(json.dumps(payload))
        code, _, err = run(capsys, "build", "--family", "matroid",
                           "--input", str(mj))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

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
        [[], {"labels": 5, "pairs": []}, {"labels": [1], "pairs": [3]}],
        ids=["not-an-object", "labels-not-a-list", "pair-not-a-list"],
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

    def test_export_dot_round_trip(self, bell3, tmp_path, capsys):
        sk = tmp_path / "sk.json"
        run(capsys, "skeleton", "--input", str(bell3), "--output", str(sk))
        code, out, _ = run(capsys, "export-dot", "--input", str(sk))
        assert code == 0
        assert out.count(" -- ") == 8


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

    def test_nonvertex_endpoint_is_error(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        run(capsys, "build", "--family", "bell", "--n", "3",
            "--output", str(p))
        code, _, err = run(
            capsys, "path", "--input", str(p),
            "--from", "[[1, 2], [1, 3]]", "--to", "[]",
        )
        assert code == 2
        assert "error" in err


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

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nope"])
