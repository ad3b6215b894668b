"""Every script under scripts/ runs to exit 0 at a tiny size, and every sweep ends with a JSON line.

The scripts import library names (``hit_time``, ``ChainAnalysis.forget_rules``, the CLI's
parser and commands), so a renamed or removed name shows here first.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# every check the tolerance preset reports at n = 60; fundamental, column_* and oracle_* it sees only in its ledger
SWEPT_CHECKS = set("""
    column_first_step column_fundamental core_negative_mass core_routes cycle_poly_vs_trig dual_reverse_involution
    exit_conservation exit_row_min exit_row_sums first_step forget_negative_mass fundamental greens_constraint
    greens_row_sum laziness_scaling oracle_access_zero oracle_greens oracle_h_one_zero oracle_hitting oracle_t_hit
    oracle_t_mix oracle_t_reset pessimal_formulas reverse_row_sum spectral_access spectral_greens spectral_hitting
    spectral_t_hit spectral_t_mix spectral_t_reset stationary trace_vs_hit
""".split())
# the fields of every run of the first n = 4000 scale sweep, which later sweeps must keep comparable
BENCH_RUN_FIELDS = set().union(*json.loads((ROOT / "BENCH_pr28.json").read_text())["scale_n4000"]["runs"])
# the keys of every row of the parse and render presets; render's hitting rows also time the two formatters
PARSE_KEYS = set("""
    n arcs input_mb line_loop_s columnar_s loadtxt_s speedup peak_traced_mb one_split_peak_traced_mb
""".split())
RENDER_KEYS = {"n", "payload", "output_mb", "write_s", "write_peak_traced_mb", "held_peak_traced_mb"}
FORMATTER_KEYS = {"row_join_ns_per_float", "kernel_ns_per_float"}
SCRIPTS = [
    ["sweep.py", "scale", "--sizes", "30"],
    ["sweep.py", "range", "--n", "8", "--seeds", "1"],
    ["sweep.py", "tolerance", "--n", "60"],
    ["sweep.py", "parse", "--n", "50"],
    ["sweep.py", "render", "--n", "50"],
    ["duality_demo.py"],
    ["family_tour.py"],
]


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_every_preset_is_run():
    proc = run_script(["sweep.py", "--help"])
    assert proc.returncode == 0, proc.stderr
    choices = re.search(r"\{([a-z,]+)\}", proc.stdout).group(1).split(",")
    assert sorted(choices) == sorted(argv[1] for argv in SCRIPTS if argv[0] == "sweep.py")


@pytest.mark.parametrize(
    "argv",
    [["scale", "--sizes", "0"], ["tolerance", "--n", "2"], ["range", "--n", "8", "--seeds", "0"]],
    ids=["scale-n0", "tolerance-n2", "range-seeds0"],
)
def test_sweep_rejects_sizes_no_family_builds(argv):
    proc = run_script(["sweep.py", *argv])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv", SCRIPTS, ids=lambda argv: f"sweep-{argv[1]}" if argv[0] == "sweep.py" else argv[0].removesuffix(".py")
)
def test_script_exits_zero(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if "sweep" not in argv[0]:
        return
    last = json.loads(proc.stdout.splitlines()[-1])
    if argv[1:2] == ["scale"]:
        # 2 graphs x (6 chain commands and simulate, and spectral on the undirected one)
        assert len(last["runs"]) == 15
        assert all(run["exit"] == 0 for run in last["runs"]), last["runs"]
        assert all(BENCH_RUN_FIELDS | {"n"} <= set(run) for run in last["runs"])
    if argv[1:2] == ["tolerance"]:
        assert set(last) == SWEPT_CHECKS
    if argv[1:2] == ["range"]:
        # 5 graphs (3 cycle decades and 2 holding decades, one seed each) x 2 laziness x 6 commands
        assert sum(runs for *_, runs in last["exits"]) == 60
        failed = sum(runs for _, _, status, runs in last["exits"] if status)
        assert sum(runs for *_, runs in last["failures"]) == failed
    if argv[1:2] == ["parse"]:
        assert [set(r) for r in last] == [PARSE_KEYS]
    if argv[1:2] == ["render"]:
        assert [r["payload"] for r in last] == ["hitting", "dual"]
        assert [set(r) for r in last] == [RENDER_KEYS | FORMATTER_KEYS, RENDER_KEYS]
