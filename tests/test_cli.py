import json

import numpy as np
import pytest

import greenwalk.hitting
from greenwalk.cli import main

K3 = "# undirected\n0 1\n0 2\n1 2\n"
P3 = "# undirected\n0 1\n1 2\n"
TRIANGLE = "0 1 1\n1 2 1\n2 0 1\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(K3)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGreenCommand:
    def test_complete_graph_json(self, capsys, k3_file):
        code, out, _ = run(capsys, "green", "--input", k3_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        rows = np.array(payload["rows"])
        assert np.allclose(np.diag(rows), 4.0 / 9.0, atol=1e-12)
        assert payload["residuals"]["constraint"] <= 1e-9 * 3

    def test_csv_format(self, capsys, k3_file):
        code, out, _ = run(capsys, "green", "--input", k3_file, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0,1,2"
        assert len(lines) == 4

    def test_point_target(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text(P3)
        code, out, _ = run(capsys, "green", "--input", str(path), "--target", "1")
        assert code == 0
        rows = np.array(json.loads(out)["rows"])
        assert abs(rows[0, 1] + 0.5) <= 1e-12

    def test_byte_identical_output(self, capsys, k3_file):
        _, first, _ = run(capsys, "green", "--input", k3_file)
        _, second, _ = run(capsys, "green", "--input", k3_file)
        assert first == second


class TestExitCodes:
    def test_parse_error_is_one(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 -2\n")
        code, _, err = run(capsys, "hitting", "--input", str(path))
        assert code == 1
        assert "negative weight" in err

    def test_missing_file_is_one(self, capsys):
        code, _, _ = run(capsys, "hitting", "--input", "/nonexistent/g.edges")
        assert code == 1

    def test_directory_input_is_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "hitting", "--input", str(tmp_path))
        assert code == 1
        assert err.startswith("error:")

    def test_undecodable_input_is_one(self, capsys, tmp_path):
        path = tmp_path / "binary.edges"
        path.write_bytes(b"\xff0 1\n")
        code, _, err = run(capsys, "hitting", "--input", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_directory_green_is_one(self, capsys, k3_file, tmp_path):
        code, _, err = run(capsys, "verify", "--input", k3_file, "--green", str(tmp_path))
        assert code == 1
        assert err.startswith("error:")

    def test_usage_error_is_one(self, capsys):
        assert main(["green"]) == 1
        capsys.readouterr()

    def test_unknown_target_is_one(self, capsys, k3_file):
        code, _, _ = run(capsys, "green", "--input", k3_file, "--target", "everywhere")
        assert code == 1

    def test_spectral_on_directed_is_one(self, capsys, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text(TRIANGLE)
        code, _, _ = run(capsys, "spectral", "--input", str(path))
        assert code == 1

    def test_corrupt_green_matrix_is_two(self, capsys, k3_file, tmp_path):
        bad = {
            "n": 3,
            "target": [1 / 3, 1 / 3, 1 / 3],
            "rows": [[1.0, -0.5, -0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        }
        green_path = tmp_path / "bad_green.json"
        green_path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "verify", "--input", k3_file, "--green", str(green_path))
        assert code == 2
        assert "file_greens" in err


class TestVerify:
    def test_clean_graph_passes(self, capsys, k3_file):
        code, out, err = run(capsys, "verify", "--input", k3_file)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_green_roundtrip(self, capsys, k3_file, tmp_path):
        _, out, _ = run(capsys, "green", "--input", k3_file)
        green_path = tmp_path / "green.json"
        green_path.write_text(out)
        code, out2, _ = run(capsys, "verify", "--input", k3_file, "--green", str(green_path))
        assert code == 0
        checks = json.loads(out2)["checks"]
        assert checks["file_greens_constraint"]["ok"]

    def test_directed_graph_passes(self, capsys, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text(TRIANGLE)
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0

    def test_lazy_flag(self, capsys, k3_file):
        code, _, _ = run(capsys, "verify", "--input", k3_file, "--lazy", "0.3")
        assert code == 0


class TestFamilyCommand:
    def test_hypercube_measure(self, capsys):
        code, out, _ = run(capsys, "family", "hypercube", "3", "--measure", "tmix")
        assert code == 0
        assert out.strip() == "2.75"

    def test_complete_report(self, capsys):
        code, out, _ = run(capsys, "family", "complete", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["measures"]["t_hit"] == pytest.approx(9.0 / 4.0)
        assert max(payload["solver_residuals"].values()) <= 1e-8

    def test_toric_params(self, capsys):
        code, out, _ = run(capsys, "family", "toric", "3", "3")
        assert code == 0
        assert json.loads(out)["n"] == 9

    def test_tree_needs_input(self, capsys):
        code, _, _ = run(capsys, "family", "tree")
        assert code == 1

    def test_tree_from_file(self, capsys, tmp_path):
        path = tmp_path / "p4.edges"
        path.write_text("# undirected\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "family", "tree", "--input", str(path))
        assert code == 0
        assert json.loads(out)["family"] == "tree"

    def test_unknown_measure(self, capsys):
        code, _, _ = run(capsys, "family", "complete", "4", "--measure", "nope")
        assert code == 1


class TestOtherCommands:
    def test_hitting_json(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text(P3)
        code, out, _ = run(capsys, "hitting", "--input", str(path))
        assert code == 0
        rows = np.array(json.loads(out)["rows"])
        assert rows[0, 2] == pytest.approx(4.0)

    def test_mixing_json(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text(P3)
        code, out, _ = run(capsys, "mixing", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["t_mix"] == pytest.approx(1.5)
        assert payload["t_hit"] == pytest.approx(1.5)

    def test_exitfreq_point_target(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text(P3)
        code, out, _ = run(capsys, "exitfreq", "--input", str(path), "--target", "1")
        assert code == 0
        rows = np.array(json.loads(out)["rows"])
        assert np.abs(rows[:, 1]).max() <= 1e-12

    def test_spectral_undirected(self, capsys, k3_file):
        code, out, _ = run(capsys, "spectral", "--input", k3_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["t_hit"] == pytest.approx(4.0 / 3.0)

    def test_dual_report(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text(P3)
        code, out, _ = run(capsys, "dual", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["core"] == [0.0, 1.0, 0.0]
        assert payload["t_forget"] == pytest.approx(1.0)

    def test_simulate_hitting(self, capsys, tmp_path):
        path = tmp_path / "c5.edges"
        path.write_text("# undirected\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        code, out, _ = run(
            capsys, "simulate", "--input", str(path), "--start", "0", "--stop", "2",
            "--trials", "2000", "--seed", "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(6.0)
        assert abs(payload["mean"] - 6.0) <= 5.0 * payload["stderr"]

    def test_simulate_random_target(self, capsys, tmp_path):
        path = tmp_path / "c4.edges"
        path.write_text("# undirected\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run(
            capsys, "simulate", "--input", str(path), "--start", "1",
            "--trials", "2000", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "random-target"
        assert abs(payload["mean"] - 2.5) <= 5.0 * payload["stderr"]

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(K3))
        code, out, _ = run(capsys, "mixing", "--input", "-")
        assert code == 0
        assert json.loads(out)["n"] == 3


@pytest.fixture
def solves(monkeypatch):
    """The order of every fundamental-matrix solve, in call order."""
    calls = []
    solve = greenwalk.hitting.fundamental_matrix

    def counting(P, pi):
        calls.append(P.n)
        return solve(P, pi)

    monkeypatch.setattr(greenwalk.hitting, "fundamental_matrix", counting)
    return calls


class TestSolveCounts:
    """Each chain a command builds is solved once: the forward chain, the
    reverse chain for the duality report, and verify's independent
    beta = 0.5 re-solve."""

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["hitting"], 1),
            (["green"], 1),
            (["exitfreq"], 1),
            (["mixing"], 1),
            (["spectral"], 1),
            (["simulate", "--start", "0", "--stop", "2", "--trials", "50"], 1),
            (["simulate", "--start", "0", "--trials", "50"], 1),
            (["dual"], 2),
            (["verify"], 3),
            (["verify", "--lazy", "0.3"], 2),
        ],
    )
    def test_command(self, capsys, solves, k3_file, argv, count):
        code, _, _ = run(capsys, argv[0], "--input", k3_file, *argv[1:])
        assert code == 0
        assert len(solves) == count

    def test_directed_dual_and_verify(self, capsys, solves, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text(TRIANGLE)
        assert run(capsys, "dual", "--input", str(path))[0] == 0
        assert run(capsys, "verify", "--input", str(path))[0] == 0
        assert len(solves) == 2 + 3

    def test_family(self, capsys, solves):
        code, _, _ = run(capsys, "family", "toric", "3", "4")
        assert code == 0
        assert solves == [12]
