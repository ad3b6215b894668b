"""The three workloads: seeded inputs, the CLI commands of one pass, and their output checks.

A workload writes its graph files into a work directory and returns a list
of operations, each one ``greenwalk.cli.main`` argument vector, plus a
function that checks the captured stdout of every operation. Inputs depend
only on the seed; sizes stay below the points where greenwalk's absolute
tolerances trip (see README.md).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from greenwalk import families, generators

import checks
from checks import Ledger

# Input sizes. Commands are kept to tens of milliseconds each, so a run
# holds many short passes and the median pass against the calibration is
# steady (README, "Steadiness"). `scale` shrinks them for the self-test.
MATRIX_N = 120           # directed digraph and cycle of matrix-export
MATRIX_EXTRA = 0.05
AUDIT_N = 120            # undirected graph of invariant-audit
AUDIT_EXTRA = 0.02
AUDIT_DIRECTED_N = 120   # directed graph of invariant-audit
AUDIT_DIRECTED_EXTRA = 0.1
TORIC_SHAPES = ((10, 12), (8, 15), (6, 20), (4, 30))
WALK_N = 150
WALK_EXTRA = 0.05
WALK_PAIRS = 4           # (start, stop) pairs, each walked in all three modes
WALK_STEPS = 24_000      # expected walk steps per simulate command
WALK_MIN_TRIALS = 40
WALK_LAZY = 0.5


@dataclass
class Workload:
    ops: list[tuple[str, list[str]]]                   # (key, argv)
    check: Callable[[dict[str, str]], Ledger]          # captured stdout by key -> ledger
    inputs: dict[str, object] = field(default_factory=dict)


def write_edge_list(g, path: Path, comment: str) -> None:
    """Write a WeightedDigraph as an edge list; undirected edges once, weights exact."""
    lines = [f"# {comment}"]
    if g.undirected:
        lines.append("# undirected")
    for i, j, w in g.arcs:
        if g.undirected and i > j:
            continue  # the mirror of a listed edge
        lines.append(f"{i} {j} {w!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _seed(seed: int) -> int:
    return seed % 2**31


def _matrix(text: str) -> tuple[dict, np.ndarray]:
    data = json.loads(text)
    return data, np.array(data["rows"], dtype=float)


def _guarded(led: Ledger, op: str, fn: Callable[[], None]) -> None:
    """Run one operation's checks; unreadable output is a failed check, not a crash."""
    try:
        fn()
    except (ValueError, KeyError, TypeError, IndexError, np.linalg.LinAlgError) as exc:
        led.fail(op, f"unreadable output: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# matrix-export


def matrix_export(seed: int, work: Path, scale: float = 1.0) -> Workload:
    s = _seed(seed)
    n = max(8, int(MATRIX_N * scale))
    rng = np.random.default_rng(s)
    digraph = work / "directed.edges"
    cycle = work / "cycle.edges"
    write_edge_list(
        generators.random_strongly_connected_digraph(n, s, extra=MATRIX_EXTRA),
        digraph,
        f"random_strongly_connected_digraph({n}, {s}, extra={MATRIX_EXTRA})",
    )
    write_edge_list(families.cycle_graph(n), cycle, f"cycle_graph({n})")
    vertex = int(rng.integers(0, n))
    D, C = str(digraph), str(cycle)
    ops = [
        ("hitting-directed", ["hitting", "--input", D]),
        ("green-directed-pi", ["green", "--input", D, "--target", "pi"]),
        ("green-cycle-uniform", ["green", "--input", C, "--target", "uniform"]),
        ("green-directed-vertex", ["green", "--input", D, "--target", str(vertex)]),
        ("exitfreq-directed", ["exitfreq", "--input", D]),
        ("hitting-cycle-csv", ["hitting", "--input", C, "--format", "csv"]),
    ]

    def check(out: dict[str, str]) -> Ledger:
        led = Ledger()
        P = checks.transition(checks.read_edge_list(digraph)[0])
        pi = checks.stationary(P)
        Pc = checks.transition(checks.read_edge_list(cycle)[0])
        uniform = np.full(n, 1.0 / n)
        point = np.zeros(n)
        point[vertex] = 1.0
        found: dict[str, np.ndarray] = {}

        def hitting_directed():
            data, H = _matrix(out["hitting-directed"])
            led.require("hitting-directed", data["n"] == n and H.shape == (n, n), "wrong shape")
            checks.check_close(led, "hitting-directed", "hitting.target_is_pi", data["target"], pi)
            checks.check_hitting(led, "hitting-directed", H, P)
            found["directed"] = H

        def hitting_cycle():
            rows = list(csv.reader(io.StringIO(out["hitting-cycle-csv"])))
            led.require("hitting-cycle-csv", rows[0] == [str(j) for j in range(n)], "bad CSV header")
            H = np.array(rows[1:], dtype=float)
            led.require("hitting-cycle-csv", H.shape == (n, n), f"CSV shape {H.shape}")
            checks.check_cycle_hitting(led, "hitting-cycle-csv", H)
            checks.check_hitting(led, "hitting-cycle-csv", H, Pc)
            found["cycle"] = H

        _guarded(led, "hitting-directed", hitting_directed)
        _guarded(led, "hitting-cycle-csv", hitting_cycle)

        for op, graph, P_, pi_, tau in (
            ("green-directed-pi", "directed", P, pi, pi),
            ("green-cycle-uniform", "cycle", Pc, uniform, uniform),
            ("green-directed-vertex", "directed", P, pi, point),
        ):
            def green(op=op, graph=graph, P_=P_, pi_=pi_, tau=tau):
                data, G = _matrix(out[op])
                checks.check_close(led, op, "green.target", data["target"], tau)
                if graph not in found:
                    led.fail(op, f"no readable {graph} hitting matrix to compare against")
                    return
                checks.check_green(led, op, G, found[graph], pi_, tau, P_)

            _guarded(led, op, green)

        def exitfreq():
            data, X = _matrix(out["exitfreq-directed"])
            checks.check_close(led, "exitfreq-directed", "exit.target", data["target"], pi)
            checks.check_exit(led, "exitfreq-directed", X, pi, P)

        _guarded(led, "exitfreq-directed", exitfreq)
        return led

    inputs = {
        "directed": f"random_strongly_connected_digraph(n={n}, seed={s}, extra={MATRIX_EXTRA}, weights U(0.5, 1.5))",
        "cycle": f"cycle_graph({n}), unit weights, closed form H(i, j) = d (n - d)",
        "single vertex target": vertex,
    }
    return Workload(ops, check, inputs)


# ---------------------------------------------------------------------------
# invariant-audit


def invariant_audit(seed: int, work: Path, scale: float = 1.0) -> Workload:
    s = _seed(seed)
    n = max(8, int(AUDIT_N * scale))
    nd = max(8, int(AUDIT_DIRECTED_N * scale))
    rng = np.random.default_rng(s)
    digraph = work / "directed.edges"
    undirected = work / "undirected.edges"
    write_edge_list(
        generators.random_strongly_connected_digraph(nd, s, extra=AUDIT_DIRECTED_EXTRA),
        digraph,
        f"random_strongly_connected_digraph({nd}, {s}, extra={AUDIT_DIRECTED_EXTRA})",
    )
    write_edge_list(
        generators.random_connected_graph(n, s + 1, extra=AUDIT_EXTRA),
        undirected,
        f"random_connected_graph({n}, {s + 1}, extra={AUDIT_EXTRA})",
    )
    if scale == 1.0:
        dims = TORIC_SHAPES[int(rng.integers(0, len(TORIC_SHAPES)))]
    else:
        dims = (3, 4)
    D, U = str(digraph), str(undirected)
    ops = [
        ("verify-directed", ["verify", "--input", D]),
        ("verify-undirected", ["verify", "--input", U]),
        ("dual-directed", ["dual", "--input", D]),
        ("dual-undirected", ["dual", "--input", U]),
        ("spectral-undirected", ["spectral", "--input", U]),
        ("mixing-undirected", ["mixing", "--input", U]),
        ("family-toric", ["family", "toric", *map(str, dims), "--measure", "thit"]),
    ]

    def check(out: dict[str, str]) -> Ledger:
        led = Ledger()
        Wd = checks.read_edge_list(digraph)[0]
        Pd = checks.transition(Wd)
        pid = checks.stationary(Pd)
        Wu = checks.read_edge_list(undirected)[0]
        deg = Wu.sum(axis=1)
        piu = deg / deg.sum()
        eigs = checks.normalized_laplacian_eigenvalues(Wu)
        kemeny = float((1.0 / eigs[1:]).sum())
        found: dict[str, dict] = {}

        for op in ("verify-directed", "verify-undirected"):
            def verify(op=op):
                data = json.loads(out[op])
                bad = [k for k, v in data["checks"].items() if v["ok"] is not True]
                led.require(op, data["ok"] is True and not bad, f"verify not ok: {bad}")

            _guarded(led, op, verify)

        def dual_directed():
            data = json.loads(out["dual-directed"])
            expected = Pd.T * pid[None, :] / pid[:, None]
            checks.check_close(led, "dual-directed", "dual.reverse_rows", data["reverse_rows"], expected)

        def mixing():
            data = json.loads(out["mixing-undirected"])
            mix = np.array(data["mixing_times"], dtype=float)
            checks.check_close(led, "mixing-undirected", "mixing.t_mix", data["t_mix"], mix.max(), n)
            checks.check_close(led, "mixing-undirected", "mixing.t_reset", data["t_reset"], piu @ mix, n)
            found["mixing"] = data

        def spectral():
            data = json.loads(out["spectral-undirected"])
            checks.check_close(led, "spectral-undirected", "spectral.eigenvalues", data["eigenvalues"], eigs)
            checks.check_close(led, "spectral-undirected", "spectral.t_hit_kemeny", data["t_hit"], kemeny, n)
            if "mixing" in found:
                checks.check_close(
                    led, "spectral-undirected", "spectral.t_hit_vs_mixing", data["t_hit"], found["mixing"]["t_hit"], n
                )
            else:
                led.fail("spectral-undirected", "no readable mixing output to compare t_hit against")

        def dual_undirected():
            data = json.loads(out["dual-undirected"])
            checks.check_close(led, "dual-undirected", "dual.reversible_rows", data["reverse_rows"], Wu / deg[:, None])
            if "mixing" in found:
                checks.check_close(
                    led, "dual-undirected", "dual.t_forget_vs_t_reset", data["t_forget"], found["mixing"]["t_reset"], n
                )
            else:
                led.fail("dual-undirected", "no readable mixing output to compare t_forget against")

        def family():
            checks.check_close(led, "family-toric", "family.toric_kemeny", float(out["family-toric"]), checks.toric_kemeny(dims), dims[0] * dims[1])

        _guarded(led, "dual-directed", dual_directed)
        _guarded(led, "mixing-undirected", mixing)
        _guarded(led, "spectral-undirected", spectral)
        _guarded(led, "dual-undirected", dual_undirected)
        _guarded(led, "family-toric", family)
        return led

    inputs = {
        "directed": f"random_strongly_connected_digraph(n={nd}, seed={s}, extra={AUDIT_DIRECTED_EXTRA}, weights U(0.5, 1.5))",
        "undirected": f"random_connected_graph(n={n}, seed={s + 1}, extra={AUDIT_EXTRA}), unit weights",
        "toric": f"family toric {dims[0]} {dims[1]} (closed-form eigenvalues)",
    }
    return Workload(ops, check, inputs)


# ---------------------------------------------------------------------------
# walk-sim


def walk_sim(seed: int, work: Path, scale: float = 1.0) -> Workload:
    s = _seed(seed)
    n = max(30, int(WALK_N * scale))
    rng = np.random.default_rng(s)
    path = work / "walk.edges"
    write_edge_list(
        generators.random_strongly_connected_digraph(n, s, extra=WALK_EXTRA),
        path,
        f"random_strongly_connected_digraph({n}, {s}, extra={WALK_EXTRA})",
    )
    # The benchmark's own exact hitting times fix the trial counts, so every
    # seed walks about WALK_STEPS steps per command.
    W = checks.read_edge_list(path)[0]
    P, P_lazy = checks.transition(W), checks.transition(W, WALK_LAZY)
    pi = checks.stationary(P)
    H = np.column_stack([checks.hitting_column(P, j) for j in range(n)])
    steps = WALK_STEPS * scale
    ops, expected, pairs = [], {}, []
    for r in range(WALK_PAIRS):
        start = int(rng.integers(0, n))
        stop = int((start + rng.integers(1, n)) % n)
        pairs.append((start, stop))
        runs = {
            f"simulate-hitting-{r}": (H[start, stop], ["--stop", str(stop)], 0),
            f"simulate-random-target-{r}": (float(pi @ H[start]), [], 1),
            f"simulate-lazy-{r}": (
                checks.hitting_column(P_lazy, stop)[start],
                ["--stop", str(stop), "--lazy", str(WALK_LAZY)],
                2,
            ),
        }
        for key, (mean, extra_args, offset) in runs.items():
            trials = max(WALK_MIN_TRIALS, round(steps / mean))
            argv = ["simulate", "--input", str(path), "--start", str(start), *extra_args,
                    "--trials", str(trials), "--seed", str(s + 3 * r + offset)]
            ops.append((key, argv))
            expected[key] = (mean, trials)

    def check(out: dict[str, str]) -> Ledger:
        led = Ledger()
        for key, (mean, trials) in expected.items():
            def one(key=key, mean=mean, trials=trials):
                data = json.loads(out[key])
                mode = "random-target" if key.startswith("simulate-random-target") else "hitting"
                led.require(key, data["mode"] == mode, f"mode {data['mode']!r} != {mode!r}")
                checks.check_simulated_mean(led, key, data, trials, mean)
                checks.check_close(led, key, "simulate.analytic", data["analytic"], mean, n)

            _guarded(led, key, one)
        return led

    inputs = {
        "graph": f"random_strongly_connected_digraph(n={n}, seed={s}, extra={WALK_EXTRA}, weights U(0.5, 1.5))",
        "(start, stop) pairs": pairs,
        "trials": [v[1] for v in expected.values()],
    }
    return Workload(ops, check, inputs)


BUILDERS = {
    "matrix-export": matrix_export,
    "invariant-audit": invariant_audit,
    "walk-sim": walk_sim,
}
