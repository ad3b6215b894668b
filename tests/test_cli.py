import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenwalk.cli
import greenwalk.duality
import greenwalk.errors
import greenwalk.graph
import greenwalk.greens
import greenwalk.hitting
import greenwalk.montecarlo
import greenwalk.pipeline
import greenwalk.spectral
import greenwalk.tolerance
from greenwalk.cli import main
from greenwalk.graph import Distribution
from greenwalk.hitting import HittingTimeMatrix

K3 = "# undirected\n0 1\n0 2\n1 2\n"
P3 = "# undirected\n0 1\n1 2\n"
TRIANGLE = "0 1 1\n1 2 1\n2 0 1\n"
GOLDEN = Path(__file__).parent / "golden"


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

    # an infinite beta blends to nan: no numpy warning may reach stderr ahead of the message
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", ["2", "1", "-0.1", "nan", "inf"])
    def test_laziness_outside_unit_interval_is_one(self, capsys, k3_file, beta):
        code, out, err = run(capsys, "hitting", "--input", k3_file, f"--lazy={beta}")
        assert (code, out, err) == (1, "", "error: laziness beta must lie in [0, 1)\n")

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

    @pytest.mark.parametrize("vertices", [["--start", "50", "--stop", "1"], ["--start", "-1"]])
    def test_simulate_missing_start_is_one(self, capsys, tmp_path, vertices):
        path = tmp_path / "tri.edges"
        path.write_text(TRIANGLE)
        code, _, err = run(capsys, "simulate", "--input", str(path), "--trials", "5", *vertices)
        assert code == 1
        assert "start and stop must be vertices" in err

    def test_simulate_negative_stop_is_one(self, capsys, tmp_path, monkeypatch):
        # a stop that is no vertex is never reached: cap the walk so a missing check fails fast
        monkeypatch.setattr(greenwalk.montecarlo, "STEP_CAP", 1000)
        path = tmp_path / "tri.edges"
        path.write_text(TRIANGLE)
        code, _, err = run(capsys, "simulate", "--input", str(path), "--trials", "5", "--start", "0", "--stop", "-2")
        assert code == 1
        assert "start and stop must be vertices" in err

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

    @pytest.mark.parametrize("field", ["rows", "target"])
    def test_non_finite_green_matrix_is_one(self, capsys, k3_file, tmp_path, field):
        _, out, _ = run(capsys, "green", "--input", k3_file)
        green = json.loads(out)
        if field == "rows":
            green["rows"][1][2] = float("nan")
        else:
            green["target"][0] = float("nan")
        green_path = tmp_path / "green.json"
        green_path.write_text(json.dumps(green))  # json writes NaN, and json.loads reads it back
        code, out, err = run(capsys, "verify", "--input", k3_file, "--green", str(green_path))
        assert code == 1 and out == ""
        assert err == "error: bad Green matrix file: entries must be finite\n"

    @pytest.mark.parametrize(
        "green",
        [
            pytest.param(None, id="3-vertex-green-on-4-cycle"),
            pytest.param({"n": 4, "target": [0.25] * 4, "rows": [1, 2, 3]}, id="flat-rows"),
        ],
    )
    def test_green_matrix_of_wrong_shape_is_one(self, capsys, k3_file, tmp_path, green):
        cycle = tmp_path / "c4.edges"
        cycle.write_text("# undirected\n0 1\n1 2\n2 3\n3 0\n")
        green_path = tmp_path / "green.json"
        green_path.write_text(run(capsys, "green", "--input", k3_file)[1] if green is None else json.dumps(green))
        code, out, err = run(capsys, "verify", "--input", str(cycle), "--green", str(green_path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad Green matrix file: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["mixing", "--input", "K3", "--format", "csv"],
            ["hitting", "--input", "K3", "--tol", "1"],
            ["family", "path", "5", "--lazy", "0.5"],
            ["verify", "--input", "K3", "--tol", "1e-8"],
        ],
    )
    def test_option_the_command_does_not_read_is_one(self, capsys, k3_file, argv):
        code, out, err = run(capsys, *[k3_file if a == "K3" else a for a in argv])
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err


def _first_constraint_is_one(real):
    return lambda M, P: 1.0


def _first_constraint_is_nan(real):
    return lambda M, P: float("nan")


def _zero_hitting_from_greens(M, pi):
    return HittingTimeMatrix(np.zeros((M.n, M.n)))


def _reverse_involution_is_one(real):
    def fake(name, residual, limit, *error):
        return real(name, 1.0 if name == "dual_reverse_involution" else residual, limit, *error)

    return fake


def _largest_hitting_time(case):
    return float(np.max(json.loads((GOLDEN / f"{case}.out").read_text())["rows"]))


class TestCheckFailures:
    """A check over its limit on what a command prints exits 2 with no output,
    and stderr names the failing check with its residual and limit."""

    @pytest.mark.parametrize(
        "command, graph, module, attr, fake, residual, check",
        [
            pytest.param(
                "green", "directed", greenwalk.greens, "verify_green_constraints", _first_constraint_is_one,
                1.0, "greens_constraint", id="green",
            ),
            pytest.param(
                "green", "directed", greenwalk.greens, "verify_green_constraints", _first_constraint_is_nan,
                float("nan"), "greens_constraint", id="green-nan",
            ),
            pytest.param(
                "exitfreq", "directed", greenwalk.greens, "verify_green_constraints", _first_constraint_is_one,
                1.0, "exit_conservation", id="exitfreq",
            ),
            pytest.param(
                "spectral", "undirected", greenwalk.pipeline, "hitting_from_greens",
                lambda real: _zero_hitting_from_greens,
                _largest_hitting_time("hitting-undirected"), "spectral_hitting", id="spectral",
            ),
            pytest.param(
                "dual", "directed", greenwalk.duality, "require", _reverse_involution_is_one,
                1.0, "dual_reverse_involution", id="dual",
            ),
        ],
    )
    def test_command_exits_two(self, capsys, monkeypatch, command, graph, module, attr, fake, residual, check):
        monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
        code, out, err = run(capsys, command, "--input", str(GOLDEN / f"{graph}.edges"))
        assert code == 2 and out == ""
        assert re.fullmatch(re.escape(f"FAIL {check}: residual {residual:.6e} exceeds ") + r"[0-9.e+-]+\n", err)


class TestRaisedChecks:
    """A check the library raises while computing exits 2 with no output, and
    stderr names it; verify, which records its checks, prints them and names
    each failed one after its output."""

    @pytest.mark.parametrize(
        "check, argv",
        [
            ("stationary", ["hitting", "--input", "DIRECTED"]),
            ("fundamental", ["hitting", "--input", "DIRECTED"]),
            ("first_step", ["hitting", "--input", "DIRECTED"]),
            ("exit_row_min", ["mixing", "--input", "DIRECTED"]),
            ("exit_row_min", ["exitfreq", "--input", "DIRECTED"]),
            ("exit_row_sums", ["exitfreq", "--input", "DIRECTED"]),
            ("greens_row_sum", ["green", "--input", "DIRECTED"]),
            ("trace_vs_hit", ["mixing", "--input", "DIRECTED"]),
            ("pessimal_formulas_0", ["mixing", "--input", "UNDIRECTED"]),
            ("reverse_row_sum", ["dual", "--input", "DIRECTED"]),
            ("forget_negative_mass", ["dual", "--input", "DIRECTED"]),
            ("core_negative_mass", ["dual", "--input", "DIRECTED"]),
            ("core_routes", ["dual", "--input", "DIRECTED"]),
            ("core_routes", ["verify", "--input", "DIRECTED"]),
            # these ids keep the numbers they were first listed under, so deleting a case above shifts none
            pytest.param("oracle_hitting", ["family", "complete", "4"], id="oracle_hitting-argv17"),
            pytest.param("cycle_poly_vs_trig", ["family", "cycle", "5"], id="cycle_poly_vs_trig-argv18"),
            pytest.param(
                "fundamental", ["simulate", "--input", "DIRECTED", "--start", "0", "--stop", "3", "--trials", "5"],
                id="fundamental-argv19",
            ),
            pytest.param(
                "first_step", ["simulate", "--input", "DIRECTED", "--start", "0", "--stop", "3", "--trials", "5"],
                id="first_step-argv20",
            ),
        ],
    )
    def test_guard_exits_two(self, capsys, lower_limit, check, argv):
        lower_limit(check)
        graphs = {"DIRECTED": str(GOLDEN / "directed.edges"), "UNDIRECTED": str(GOLDEN / "undirected.edges")}
        code, out, err = run(capsys, *[graphs.get(a, a) for a in argv])
        assert code == 2
        if argv[0] == "verify":  # verify prints its checks, the failed one among them
            assert not json.loads(out)["checks"][check]["ok"]
        else:
            assert out == ""
        assert re.fullmatch(re.escape(f"FAIL {check}: residual ") + r"[0-9.e+-]+ exceeds -1\.000000e\+00\n", err)

    def test_verify_reports_the_raised_mixing_residual(self, capsys, lower_limit):
        # verify lists the mixing report's trace_vs_hit, which it no longer recomputes at its own limit
        lower_limit("trace_vs_hit")
        code, out, err = run(capsys, "verify", "--input", str(GOLDEN / "directed.edges"))
        checks = json.loads(out)["checks"]
        assert code == 2 and "mixing_formulas" not in checks
        assert not checks["trace_vs_hit"]["ok"] and checks["trace_vs_hit"]["limit"] == -1.0
        assert re.fullmatch(r"FAIL trace_vs_hit: residual [0-9.e+-]+ exceeds -1\.000000e\+00\n", err)

    def test_verify_lists_a_raised_mixing_check_under_its_own_name(self, capsys, lower_limit):
        lower_limit("pessimal_formulas_0")
        code, out, err = run(capsys, "verify", "--input", str(GOLDEN / "undirected.edges"))
        checks = json.loads(out)["checks"]
        assert code == 2 and "mixing_formulas" not in checks
        assert checks["pessimal_formulas_0"]["limit"] == -1.0 and not checks["pessimal_formulas_0"]["ok"]
        assert re.fullmatch(r"FAIL pessimal_formulas_0: residual [0-9.e+-]+ exceeds -1\.000000e\+00\n", err)

    def test_verify_checks_spectral_mixing_after_a_failed_mixing_check(self, capsys, lower_limit):
        # no check raises inside verify's ledger, so the mixing report is built and the spectral
        # mixing measures are checked against it
        lower_limit("trace_vs_hit")
        code, out, err = run(capsys, "verify", "--input", str(GOLDEN / "undirected.edges"))
        assert code == 2
        checks = json.loads(out)["checks"]
        assert "mixing_formulas" not in checks and not checks["trace_vs_hit"]["ok"]
        routes = ("hitting", "greens", "access", "t_mix", "t_reset", "t_hit")
        assert all(checks[f"spectral_{route}"]["ok"] for route in routes)
        assert re.fullmatch(r"FAIL trace_vs_hit: residual [0-9.e+-]+ exceeds -1\.000000e\+00\n", err)

    def test_verify_raises_a_failed_check_a_later_builder_trips_on(self, capsys, monkeypatch):
        # no LinAlgError: the failed fundamental check lets NaN hitting times through, which
        # HittingTimeMatrix rejects as bad input; verify names the check, as every other command does
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.full_like(a, np.nan))
        code, out, err = run(capsys, "verify", "--input", str(GOLDEN / "directed.edges"))
        assert code == 2 and out == ""
        assert re.fullmatch(r"FAIL fundamental: residual nan exceeds [0-9.e+-]+\n", err)

    def test_pi_off_stationary_is_two(self, capsys, monkeypatch):
        real = greenwalk.pipeline.stationary_distribution

        def perturbed(P):
            probs = real(P).probs.copy()
            # small enough for the forward solve's first_step check to pass
            probs[0] += 1e-12
            probs[1] -= 1e-12
            return Distribution(probs)

        monkeypatch.setattr(greenwalk.pipeline, "stationary_distribution", perturbed)
        code, out, err = run(capsys, "dual", "--input", str(GOLDEN / "directed.edges"))
        n = greenwalk.graph.load_graph(str(GOLDEN / "directed.edges")).n
        limit = greenwalk.tolerance.bound(n, 1.0, greenwalk.tolerance.RESIDUAL)
        assert code == 2 and out == ""
        assert re.fullmatch(r"FAIL reverse_row_sum: residual [0-9.e+-]+ exceeds " + re.escape(f"{limit:.6e}\n"), err)


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


class TestLinearAlgebraFailures:
    """A failed LAPACK call is a NumericalError naming the step, and the
    command exits 2 with no output."""

    CASES = [
        pytest.param(("solve",), "stationary solve failed", "directed", "hitting", id="stationary"),
        # the undirected stationary distribution is deg/vol, so the one LAPACK call is Z's inverse
        pytest.param(("solve", "inv"), "fundamental matrix solve failed", "undirected", "hitting", id="fundamental"),
        pytest.param(("eigh",), "eigendecomposition failed", "undirected", "spectral", id="eigh"),
    ]

    @pytest.mark.parametrize("routines, message, graph, command", CASES)
    def test_library_raises(self, monkeypatch, routines, message, graph, command):
        g = greenwalk.graph.load_graph(str(GOLDEN / f"{graph}.edges"))
        P = greenwalk.graph.transition_matrix(g)
        pi = greenwalk.graph.stationary_distribution(P)
        for routine in routines:
            monkeypatch.setattr(np.linalg, routine, _singular)
        steps = {
            "stationary solve failed": lambda: greenwalk.graph.stationary_distribution(P),
            "fundamental matrix solve failed": lambda: greenwalk.hitting.fundamental_matrix(P, pi),
            "eigendecomposition failed": lambda: greenwalk.spectral.decompose(g),
        }
        with pytest.raises(greenwalk.errors.NumericalError, match=f"^{message}: Singular matrix$") as info:
            steps[message]()
        assert info.value.check is None

    @pytest.mark.parametrize("routines, message, graph, command", CASES)
    def test_command_exits_two(self, capsys, monkeypatch, routines, message, graph, command):
        for routine in routines:
            monkeypatch.setattr(np.linalg, routine, _singular)
        code, out, err = run(capsys, command, "--input", str(GOLDEN / f"{graph}.edges"))
        assert (code, out, err) == (2, "", f"integrity error: {message}: Singular matrix\n")

    def test_column_solve_exits_two(self, capsys, monkeypatch):
        # simulate --stop solves for one column of Z, and reports a failed solve as the whole solve does
        monkeypatch.setattr(np.linalg, "solve", _singular)
        argv = ["simulate", "--input", str(GOLDEN / "undirected.edges"), "--start", "0", "--stop", "2", "--trials", "5"]
        assert run(capsys, *argv) == (2, "", "integrity error: fundamental matrix solve failed: Singular matrix\n")


# the check each printed residual of a command is recorded under
RESIDUAL_CHECKS = {
    "green": {"constraint": "greens_constraint", "row_sum": "greens_row_sum"},
    "exitfreq": {"conservation": "exit_conservation", "row_min": "exit_row_min", "access_gap": "exit_row_sums"},
    "spectral": {
        "hitting_route": "spectral_hitting", "greens_route": "spectral_greens", "access_route": "spectral_access",
        "t_mix": "spectral_t_mix", "t_reset": "spectral_t_reset", "t_hit": "spectral_t_hit",
    },
    "dual": {"reverse_involution": "dual_reverse_involution"},
}


class TestPrintedResiduals:
    """Every residual a command prints is the residual of the one check the library recorded under its name."""

    @pytest.mark.parametrize(
        "graph, argv",
        [
            pytest.param(graph, argv, id="-".join([graph, *argv]).replace("---target", ""))
            for graph in ("directed", "undirected")
            for argv in [
                *(["green", "--target", target] for target in ("pi", "uniform", "0")),
                *(["exitfreq", "--target", target] for target in ("pi", "uniform", "0")),
                ["spectral"],
                ["dual"],
            ]
            if argv[0] != "spectral" or graph == "undirected"
        ],
    )
    def test_printed_residual_is_the_recorded_one(self, capsys, graph, argv):
        with greenwalk.errors.recorded() as ledger:
            code, out, _ = run(capsys, argv[0], "--input", str(GOLDEN / f"{graph}.edges"), *argv[1:])
        residuals, names = json.loads(out)["residuals"], RESIDUAL_CHECKS[argv[0]]
        assert code == 0 and set(residuals) == set(names)
        for key, printed in residuals.items():
            # 17 significant digits read back to the very double
            assert [residual for name, residual, _ in ledger if name == names[key]] == [printed], key


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

    @pytest.mark.parametrize(
        "family, spellings, value",
        [
            (["bipartite", "2", "3"], ["t_mix", "tmix", "TMIX", "T_Mix"], "1.5"),
            (["bipartite", "2", "3"], ["access_left", "ACCESS_LEFT", "accessleft", "Access_Left"], "2.5"),
            (["hypercube", "3"], ["t_mix", "tmix", "TMIX"], "2.75"),
            (["hypercube", "3"], ["h_one_zero", "H_ONE_ZERO", "honezero", "h10", "H10", "h_1_0"], "10"),
        ],
        ids=["bipartite-t_mix", "bipartite-access_left", "hypercube-t_mix", "hypercube-h_one_zero"],
    )
    def test_measure_names_compare_without_case_or_underscores(self, capsys, family, spellings, value):
        for spelling in spellings:
            assert run(capsys, "family", *family, "--measure", spelling) == (0, value + "\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tree", "7", "9", "--input", "TREE"], "family 'tree' takes no parameters, got 7 9"),
            (["path", "5", "--input", "/nonexistent"], "family 'path' does not read --input"),
            (["path", "5", "--input-format", "json"], "family 'path' does not read --input-format"),
            (["complete", "4", "--input", "TREE", "--input-format", "edgelist"], "family 'complete' does not read --input"),
        ],
        ids=["tree-params", "path-input", "path-input-format", "complete-input"],
    )
    def test_option_the_family_does_not_read_is_one(self, capsys, argv, message):
        code, out, err = run(capsys, "family", *[str(GOLDEN / "tree.edges") if a == "TREE" else a for a in argv])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


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


def _counting_solves(monkeypatch, record):
    """Wrap hitting._solve_fundamental in both modules that call it, so that each call first goes to record."""
    real = greenwalk.hitting._solve_fundamental

    def counting(P, pi, j=None):
        record(P, j)
        return real(P, pi, j)

    for module in (greenwalk.hitting, greenwalk.pipeline):
        monkeypatch.setattr(module, "_solve_fundamental", counting)


@pytest.fixture
def solves(monkeypatch):
    """(n, beta) of the chain of every whole-matrix solve, checked or not, in call order."""
    calls = []

    def record(P, j):
        if j is None:
            calls.append((P.n, P.beta))

    _counting_solves(monkeypatch, record)
    return calls


@pytest.fixture
def columns(monkeypatch):
    """The target of every one-column solve simulate makes, in call order."""
    calls = []

    def record(P, j):
        if j is not None:
            calls.append(j)

    _counting_solves(monkeypatch, record)
    return calls


class TestSolveCounts:
    """Solves are counted where they run, so a solve no check follows is
    counted too. Each command solves the forward chain once, and verify adds
    the independent beta = 0.5 inverse that laziness_scaling reads; the
    reverse chain of the duality report reads its hitting times off the
    forward chain's with no solve. simulate in hitting mode prints one
    hitting time and solves for its column of Z alone."""

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["hitting"], 1),
            (["green"], 1),
            (["exitfreq"], 1),
            (["mixing"], 1),
            (["spectral"], 1),
            (["simulate", "--start", "0", "--stop", "2", "--trials", "50"], 0),
            (["simulate", "--start", "0", "--trials", "50"], 1),
            (["dual"], 1),
            (["verify"], 2),
            (["verify", "--lazy", "0.3"], 1),
        ],
    )
    def test_command(self, capsys, solves, k3_file, argv, count):
        code, _, _ = run(capsys, argv[0], "--input", k3_file, *argv[1:])
        assert code == 0
        assert len(solves) == count

    @pytest.mark.parametrize(
        "argv, count, targets",
        [
            (["--stop", "2"], 0, [2]),
            (["--stop", "2", "--lazy", "0.3"], 0, [2]),
            ([], 1, []),
        ],
        ids=["hitting", "lazy", "random-target"],
    )
    def test_simulate_columns(self, capsys, solves, columns, k3_file, argv, count, targets):
        code, _, _ = run(capsys, "simulate", "--input", k3_file, "--start", "0", "--trials", "50", *argv)
        assert code == 0
        assert (len(solves), columns) == (count, targets)

    @pytest.mark.parametrize("argv, chains", [([], [(3, 0.0), (3, 0.5)]), (["--lazy", "0.3"], [(3, 0.3)])])
    def test_verify_solves_the_lazy_chain_once(self, capsys, solves, k3_file, argv, chains):
        code, _, _ = run(capsys, "verify", "--input", k3_file, *argv)
        assert code == 0
        assert solves == chains

    def test_simulate_bad_stop_solves_nothing(self, capsys, solves, columns, k3_file):
        code, out, err = run(capsys, "simulate", "--input", k3_file, "--start", "0", "--stop", "3", "--trials", "5")
        assert (code, out, err) == (1, "", "error: start and stop must be vertices\n")
        assert (solves, columns) == ([], [])

    def test_directed_dual_and_verify(self, capsys, solves, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text(TRIANGLE)
        assert run(capsys, "dual", "--input", str(path))[0] == 0
        assert run(capsys, "verify", "--input", str(path))[0] == 0
        assert len(solves) == 1 + 2

    def test_family(self, capsys, solves):
        code, _, _ = run(capsys, "family", "toric", "3", "4")
        assert code == 0
        assert solves == [(12, 0.0)]


class TestDualityCallCounts:
    """One dual or verify run computes each forward/reverse quantity once: the
    forget distribution of each chain, the pi-core, the reverse chain and its
    involution check, and for each (chain, target) pair the row H(tau, .) and
    the access vector H(., tau)."""

    NAMES = ("forget_distribution", "pi_core", "reverse_chain", "reversed_hitting_times")
    # (H(tau, .) row products, H(., tau) reductions): the pairs are each chain
    # toward pi and toward its forget distribution; verify builds no G toward
    # any other target
    RULES = {"dual": (4, 4), "verify": (4, 4)}

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.NAMES, 0) | {"rules": []}
        for name in self.NAMES:
            real = getattr(greenwalk.duality, name, None) or getattr(greenwalk.hitting, name)

            def counting(*args, name=name, real=real):
                counts[name] += 1
                return real(*args)

            # every module that bound the function at import calls it by that name
            for module in (greenwalk.greens, greenwalk.duality, greenwalk.pipeline):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)

        # each evaluation of a Rules vector, under its (vector, chain, target) key; the
        # record holds the hitting matrix, so no other matrix can reuse its id meanwhile
        Rules = greenwalk.greens.Rules
        for attr in ("from_target", "access"):
            real = getattr(Rules, attr).func

            def evaluated(rules, attr=attr, real=real):
                counts["rules"].append((attr, rules.hitting, rules.target.probs.tobytes()))
                return real(rules)

            prop = functools.cached_property(evaluated)
            prop.__set_name__(Rules, attr)
            monkeypatch.setattr(Rules, attr, prop)
        return counts

    @pytest.mark.parametrize("command", ["dual", "verify"])
    @pytest.mark.parametrize("graph", ["directed", "undirected"])
    def test_each_quantity_once(self, capsys, calls, command, graph):
        assert run(capsys, command, "--input", str(GOLDEN / f"{graph}.edges"))[0] == 0
        keys = [(attr, id(hitting), target) for attr, hitting, target in calls["rules"]]
        assert len(set(keys)) == len(keys)
        rows = sum(attr == "from_target" for attr, _, _ in keys)
        reductions = sum(attr == "access" for attr, _, _ in keys)
        assert (rows, reductions) == self.RULES[command]
        # no other H(tau, .) row product is made: the reverse chain's hitting times read the
        # forward chain's cached H(pi, .)
        assert calls["reversed_hitting_times"] == 1
        assert calls["forget_distribution"] == 2
        assert calls["pi_core"] == 1
        assert calls["reverse_chain"] == 2


class TestHitTimeCalls:
    """The stationary-pair hitting time is computed once per chain: verify's
    trace_vs_hit check and the mixing report's read the same one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = greenwalk.hitting.hit_time

        def counting(*args):
            calls.append(args)
            return real(*args)

        # every module that bound the function at import calls it by that name
        for module in (greenwalk.hitting, greenwalk.greens, greenwalk.pipeline, greenwalk.cli):
            if getattr(module, "hit_time", None) is real:
                monkeypatch.setattr(module, "hit_time", counting)
        return calls

    @pytest.mark.parametrize(
        "argv", [["verify"], ["mixing"], ["hitting"], ["simulate", "--start", "0", "--trials", "20"]], ids=lambda a: a[0]
    )
    @pytest.mark.parametrize("graph", ["directed", "undirected"])
    def test_once_per_command(self, capsys, calls, graph, argv):
        assert run(capsys, argv[0], "--input", str(GOLDEN / f"{graph}.edges"), *argv[1:])[0] == 0
        assert len(calls) == 1


class TestRuntimeDependencies:
    """numpy is the only run-time dependency: importing scipy alone would cost
    a one-shot command more than its whole run on a small graph."""

    def test_commands_import_no_scipy(self):
        script = "\n".join(
            [
                "import contextlib, io, sys",
                "from greenwalk.cli import main",
                "with contextlib.redirect_stdout(io.StringIO()):",
                f"    codes = [main(['hitting', '--input', {str(GOLDEN / 'directed.edges')!r}]),",
                f"             main(['spectral', '--input', {str(GOLDEN / 'undirected.edges')!r}])]",
                "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
            ]
        )
        src = str(Path(greenwalk.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[0, 0] []\n"

    def test_project_lists_no_scipy(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert "scipy" not in pyproject
