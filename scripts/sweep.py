#!/usr/bin/env python3
"""Measure greenwalk over named graph families; print a table, then the sweep as one JSON line.

A command run records its exit status, the check of its first ``FAIL``
line, its wall time and its stdout's size and sha256. The preset fixes the
graphs, the default n and what is measured:

- ``scale`` (n = 250 500 1000 2000): every chain command on the
  ``directed`` and ``undirected`` families, each run in a fresh interpreter
  with one OpenBLAS thread, its stdout hashed as it arrives and its peak
  RSS recorded. Exits 1 when a run did not exit 0.
- ``range`` (n = 40): the wide-weight ``cycle`` and ``holding`` families
  through ``cli.main`` in-process, then the runs per exit status and per
  first ``FAIL``. Exits 0.
- ``tolerance`` (n = 2000): the worst residual/limit of every check, over
  one chain per graph and laziness in an ``errors.recorded()`` ledger,
  where no check raises, and over the oracles. Exits 1 when a ratio
  exceeds 1 or a command raises. At n = 2000 it takes about 1.5 minutes
  and 0.8 GB on one core of a Xeon with one OpenBLAS thread.
- ``parse`` (n = 250 500 1000 2000): loads the ``dense`` family's edge list
  with ``graph.load_graph``, with the line loop it falls back on to locate
  errors and with ``np.loadtxt`` alone, asserts that the first two give
  bitwise the same graph, and reports the best of 3 times and the peaks
  tracemalloc sees in ``load_graph``, block-wise and with one split.
- ``render`` (n = 250 500 1000 2000): times ``cli._row_chunks`` against a
  ``"%.17g"`` join per row on the ``directed`` family's hitting times,
  asserting the same text, then ``cli.write_json`` of the ``hitting`` and
  ``dual`` payloads into a sink that drops the text and into an
  ``io.StringIO`` that keeps it (the size, best of 3 time and traced peaks).

Usage: python3 scripts/sweep.py {scale,range,tolerance,parse,render} [--n N ...] [--seeds K]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np

from greenwalk import cli, errors, families, generators, graph, hitting

# name -> (n, seed, decades) -> a graph; the *_oracle families run a closed-form oracle instead, for its checks
FAMILIES = {
    "directed": lambda n, seed, d: generators.random_strongly_connected_digraph(n, seed, extra=0.02),
    "undirected": lambda n, seed, d: generators.random_connected_graph(n, seed, extra=0.02),
    "dense": lambda n, seed, d: generators.random_strongly_connected_digraph(n, seed, extra=0.5),
    "cycle": generators.wide_cycle_digraph,
    "holding": generators.wide_holding_cycle,
    "path": lambda n, seed, d: families.path_graph(n),
    "cycle_graph": lambda n, seed, d: families.cycle_graph(n),
    "path_oracle": lambda n, seed, d: families.path_oracle(n),
    "cycle_oracle": lambda n, seed, d: families.cycle_oracle(n),
    "tree_oracle": lambda n, seed, d: families.tree_oracle(generators.random_tree(n, seed, weighted=True)),
    "hypercube_oracle": lambda n, seed, d: families.hypercube_oracle(10),
    "toric_oracle": lambda n, seed, d: families.toric_oracle((32, 32)),
}
CHAIN_COMMANDS = ["hitting", "green", "exitfreq", "mixing", "dual", "verify"]
LAZY = ["0", "0.5"]
SIMULATE_TRIALS = 100  # each walk takes about n steps in a Python loop; the default 10000 would take 100 times as long
REPEAT = 3  # parse and render report the best of this many timed calls


def write_edge_list(g, path: Path, comment: str | None = None) -> None:
    """One "src dst weight" line per arc, under an optional comment line; an undirected graph lists each edge
    once, under its header."""
    keep = g.src <= g.dst if g.undirected else np.ones(len(g.w), dtype=bool)
    lines = [f"# {comment}\n"] if comment else []
    if g.undirected:
        lines.append("# undirected\n")
    lines += [f"{i} {j} {w!r}\n" for i, j, w in zip(g.src[keep].tolist(), g.dst[keep].tolist(), g.w[keep].tolist())]
    path.write_text("".join(lines), encoding="utf-8")


def row(columns: list[str], *cells) -> str:
    """One table line: each cell aligned by its column's format spec, then the last cell after two spaces."""
    *fixed, last = cells
    return "".join(f"{cell:{spec}}" for cell, spec in zip(fixed, columns)) + f"  {last}"


def first_fail(err: str) -> str:
    """The check named by the first FAIL line of stderr, the error kind for a run that failed otherwise, or '-'."""
    for line in err.splitlines():
        if line.startswith("FAIL "):
            return line[5:].split(":", 1)[0]
        if ":" in line:
            return line.split(":", 1)[0]
    return "-"


def run(argv: list[str], env: dict | None = None) -> dict:
    """One CLI run: through cli.main in-process when env is None, else in a fresh interpreter with env."""
    rss, start = {}, time.perf_counter()
    if env is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        wall, stderr, stdout = time.perf_counter() - start, err.getvalue(), out.getvalue().encode()
        sha256, size = hashlib.sha256(stdout), len(stdout)
    else:
        sha256, size = hashlib.sha256(), 0
        with tempfile.TemporaryFile() as err:
            proc = subprocess.Popen([sys.executable, "-m", "greenwalk.cli", *argv], stdout=subprocess.PIPE, stderr=err, env=env)
            while block := proc.stdout.read(1 << 20):
                sha256.update(block)
                size += len(block)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, so Popen does not wait again
            proc.stdout.close()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        rss = {"peak_rss_mb": usage.ru_maxrss / 1024.0}
    record = {"exit": code, "first_fail": first_fail(stderr), "wall_s": wall, **rss}
    return record | {"stdout_bytes": size, "stdout_sha256": sha256.hexdigest(), "stderr": stderr}


def blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):  # the build report's layout varies by numpy version
        return "unknown"


def scale(sizes: list[int], folder: Path, seeds) -> tuple[int, dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    columns = [">6", ">12", ">9", ">5", ">9", ">9", ">9"]
    print(row(columns, "n", "graph", "command", "exit", "wall s", "peak MB", "MB out", "sha256"))
    runs = []
    for n in sizes:
        for kind in ("directed", "undirected"):
            path = folder / f"{kind}-{n}.edges"
            write_edge_list(FAMILIES[kind](n, 1, 0), path)
            argvs = [[command] for command in CHAIN_COMMANDS]
            if kind == "undirected":
                argvs.append(["spectral"])
            argvs.append(["simulate", "--start", "0", "--stop", str(n - 1), "--trials", str(SIMULATE_TRIALS)])
            for command, *options in argvs:
                r = {"n": n, "graph": kind, "command": command, "options": options}
                r |= run([command, "--input", str(path), *options], env)
                runs.append(r)
                cells = [r["exit"], f"{r['wall_s']:.3f}", f"{r['peak_rss_mb']:.1f}", f"{r['stdout_bytes'] / 2**20:.2f}"]
                print(row(columns, n, kind, command, *cells, r["stdout_sha256"][:16]))
    versions = {"python": platform.python_version(), "numpy": np.__version__, "blas": blas(), "blas_threads": 1}
    sweep = {**versions, "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"), "runs": runs}
    return int(any(r["exit"] != 0 for r in runs)), sweep


def range_(sizes: list[int], folder: Path, seeds: int | None) -> tuple[int, dict]:
    (n,) = sizes
    exits, failures = Counter(), Counter()
    columns = [">8", ">3", ">5", ">5", ">9", ">5"]
    print(row(columns, "shape", "d", "seed", "lazy", "command", "exit", "first FAIL"))
    path = folder / "graph.edges"
    for shape, d, count in [("cycle", d, 20) for d in (0, 3, 6)] + [("holding", d, 10) for d in (3, 6)]:
        for seed in range(count if seeds is None else seeds):
            write_edge_list(FAMILIES[shape](n, seed, d), path)
            for lazy in LAZY:
                for command in CHAIN_COMMANDS:
                    r = run([command, "--input", str(path), "--lazy", lazy])
                    exits[shape, d, r["exit"]] += 1
                    if r["exit"]:
                        failures[shape, d, command, r["first_fail"]] += 1
                    print(row(columns, shape, d, seed, lazy, command, r["exit"], r["first_fail"]))
    print("\nruns by exit status")
    for (shape, d, code), count in sorted(exits.items()):
        print(f"{shape:>8} d={d}  exit {code}: {count}")
    print("\nfailed runs by command and first FAIL")
    for (shape, d, command, name), count in sorted(failures.items()):
        print(f"{shape:>8} d={d}  {command:>8}  {name}: {count}")
    tables = {"exits": exits, "failures": failures}
    return 0, {name: [[*key, count] for key, count in sorted(table.items())] for name, table in tables.items()}


def limit_commands(undirected: bool) -> list[list[str]]:
    """Every command that reads a limit, spectral on undirected graphs only."""
    targets = [[command, "--target", target] for target in ("pi", "uniform", "0") for command in ("green", "exitfreq")]
    spectral = [["spectral"]] if undirected else []
    return [["hitting"], *targets, ["mixing"], *spectral, ["dual"], ["verify"]]


def tolerance(sizes: list[int], folder: Path, seeds) -> tuple[int, dict]:
    (n,) = sizes
    worst: dict[str, tuple[float, str]] = {}
    raised = []

    def note(where, checks):
        for name, residual, limit in checks:
            name = re.sub(r"_\d+$", "", name)
            ratio = residual / limit + 0.0 if limit > 0 else float("inf")
            if name not in worst or not ratio <= worst[name][0]:
                worst[name] = (ratio, where)

    parser = cli._build_parser()
    for label, family in [(f"path({n})", "path"), (f"cycle({n})", "cycle_graph"), (f"digraph({n}, 1)", "directed")]:
        g = FAMILIES[family](n, 1, 0)
        for lazy in LAZY:
            suffix = f" --lazy {lazy}" if float(lazy) else ""
            with errors.recorded() as ledger:
                chain = cli.analyze(g, float(lazy))
                for argv in limit_commands(g.undirected):
                    where = f"{' '.join(argv)} {label}{suffix}"
                    args = parser.parse_args([argv[0], "--input", label, *argv[1:]])
                    try:
                        output = args.run(args, chain)
                        note(where, [(name, c["residual"], c["limit"]) for name, c in output.get("checks", {}).items()])
                    except errors.GreenWalkError as exc:
                        raised.append(f"{where}: {exc}")
                    note(where, ledger)
                    ledger.clear()
                for j in sorted({0, int(chain.stationary.probs.argmin())}):
                    where = f"hitting_column {j} {label}{suffix}"
                    try:
                        hitting.hitting_column(chain.transition, chain.stationary, j)
                    except errors.GreenWalkError as exc:
                        raised.append(f"{where}: {exc}")
                    note(where, [(f"column_{name}", *rest) for name, *rest in ledger])
                    ledger.clear()
                del chain
            print(f"done {label}{suffix}", file=sys.stderr, flush=True)

    oracles = {
        f"path_oracle({n})": "path_oracle",
        f"cycle_oracle({n})": "cycle_oracle",
        f"tree_oracle(random_tree({n}, 1, weighted=True))": "tree_oracle",
        "hypercube_oracle(10)": "hypercube_oracle",
        "toric_oracle((32, 32))": "toric_oracle",
    }
    for label, family in oracles.items():
        with errors.recorded() as ledger:
            try:
                FAMILIES[family](n, 1, 0)
            except errors.GreenWalkError as exc:
                raised.append(f"{label}: {exc}")
        note(label, ledger)
        print(f"done {label}", file=sys.stderr, flush=True)

    columns = ["<34", ">15"]
    print(row(columns, "check", "residual/limit", "worst at"))
    for name, (ratio, where) in sorted(worst.items()):
        print(row(columns, name, f"{ratio:.3e}", where))
    for line in raised:
        print(f"raised: {line}")
    code = 1 if raised or any(not ratio <= 1.0 for ratio, _ in worst.values()) else 0
    return code, {name: ratio for name, (ratio, _) in sorted(worst.items())}


def best_of(fn, *args) -> tuple[float, object]:
    """The least wall time of REPEAT calls of fn(*args), and the last call's result."""
    best, result = float("inf"), None
    for _ in range(REPEAT):
        result = None  # free the previous result before timing the next call
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def peak_traced_mb(fn, *args) -> float:
    """The peak memory tracemalloc sees in one call of fn(*args), in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def line_loop(path: str):
    """load_graph through the line loop that locates parse errors, without the C reader."""
    g = graph._parse_edge_list_lines(graph.read_text(path))
    graph.validate_out_degrees(g)
    return g


def loadtxt_only(path: str):
    dtype = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
    return np.loadtxt(path, dtype=dtype, comments="#", ndmin=1)


def load_graph_one_split(path: str):
    with mock.patch("greenwalk.graph._lines", str.splitlines):
        return graph.load_graph(path)


def parse(sizes: list[int], folder: Path, seeds) -> tuple[int, list]:
    columns = [">6", ">10", ">8", ">14", ">12", ">11", ">10", ">9"]
    print(row(columns, "n", "arcs", "MB in", "line loop s", "columnar s", "loadtxt s", "speed-up", "peak MB", "one split"))
    table = []
    for n in sizes:
        path = folder / f"dense-{n}.edges"
        write_edge_list(FAMILIES["dense"](n, 1, 0), path, comment=f"random_strongly_connected_digraph({n}, 1, extra=0.5)")
        old_s, old = best_of(line_loop, str(path))
        new_s, new = best_of(graph.load_graph, str(path))
        assert new.n == old.n and new.undirected == old.undirected, f"n = {n}: the graphs differ"
        assert np.array_equal(new.src, old.src) and np.array_equal(new.dst, old.dst), f"n = {n}: the arcs differ"
        assert new.w.tobytes() == old.w.tobytes() and new.degrees.tobytes() == old.degrees.tobytes()
        arcs = len(new.w)
        del old, new
        r = {"n": n, "arcs": arcs, "input_mb": path.stat().st_size / 2**20, "line_loop_s": old_s, "columnar_s": new_s}
        r |= {"loadtxt_s": best_of(loadtxt_only, str(path))[0], "speedup": old_s / new_s}
        r |= {"peak_traced_mb": peak_traced_mb(graph.load_graph, str(path))}
        r |= {"one_split_peak_traced_mb": peak_traced_mb(load_graph_one_split, str(path))}
        table.append(r)
        times = [f"{r[key]:.3f}" for key in ("line_loop_s", "columnar_s", "loadtxt_s")]
        cells = [f"{r['input_mb']:.1f}", *times, f"{r['speedup']:.2f}", f"{r['peak_traced_mb']:.1f}"]
        print(row(columns, n, arcs, *cells, f"{r['one_split_peak_traced_mb']:.1f}"))
        path.unlink()
    return 0, table


class Discard(io.TextIOBase):
    """A stdout that counts and drops what it is given, so only the writer's own memory is traced."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def row_join(H) -> str:
    return "".join(", ".join(["%.17g"] * len(r)) % tuple(r) + "\n" for r in (H + 0.0).tolist())


def kernel(H) -> str:
    return "".join(cli._row_chunks(H, ", "))


def write_into(sink):
    """write_json of a payload into a fresh sink(), which lives until the payload is written."""
    return lambda payload: cli.write_json(sink().write, payload)


def render(sizes: list[int], folder: Path, seeds) -> tuple[int, list]:
    columns = [">6", ">9", ">9", ">15", ">13", ">9", ">9"]
    print(row(columns, "n", "payload", "MB out", "row_join ns/f", "kernel ns/f", "write s", "peak MB", "held MB"))
    parser = cli._build_parser()
    table = []
    for n in sizes:
        chain = cli.analyze(FAMILIES["directed"](n, 1, 0))
        argvs = {command: parser.parse_args([command, "--input", f"directed({n})"]) for command in ("hitting", "dual")}
        payloads = {command: args.run(args, chain) for command, args in argvs.items()}
        del chain
        for name, payload in payloads.items():
            r = {"n": n, "payload": name}
            if name == "hitting":
                H = payload["rows"]
                assert kernel(H) == row_join(H), f"n = {n}: the formatters disagree"
                for label, fmt in [("row_join", row_join), ("kernel", kernel)]:
                    r[f"{label}_ns_per_float"] = best_of(fmt, H)[0] / (n * n) * 1e9
            sink = Discard()
            cli.write_json(sink.write, payload)
            r |= {"output_mb": sink.size / 2**20, "write_s": best_of(write_into(Discard), payload)[0]}
            r |= {"write_peak_traced_mb": peak_traced_mb(write_into(Discard), payload)}
            r |= {"held_peak_traced_mb": peak_traced_mb(write_into(io.StringIO), payload)}
            table.append(r)
            ns = [f"{r[key]:.1f}" if key in r else "" for key in ("row_join_ns_per_float", "kernel_ns_per_float")]
            cells = [f"{r['output_mb']:.2f}", *ns, f"{r['write_s']:.3f}", f"{r['write_peak_traced_mb']:.2f}"]
            print(row(columns, n, name, *cells, f"{r['held_peak_traced_mb']:.2f}"))
    return 0, table


# preset -> its sweep, and the vertex counts it runs by default
SIZES = [250, 500, 1000, 2000]
PRESETS = {
    "scale": (scale, SIZES), "range": (range_, [40]), "tolerance": (tolerance, [2000]),
    "parse": (parse, SIZES), "render": (render, SIZES),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("preset", choices=PRESETS)
    parser.add_argument("--n", "--sizes", type=int, nargs="+", help="vertex counts, 3 or more; range and tolerance take one")
    parser.add_argument("--seeds", type=int, help="range: the first K seeds of each shape (default: 20 cycle, 10 holding)")
    args = parser.parse_args()
    sweep, sizes = PRESETS[args.preset]
    sizes = args.n or sizes
    if args.preset in ("range", "tolerance") and len(sizes) > 1:
        parser.error(f"{args.preset} takes one --n")
    if min(sizes) < 3:  # the cycle families need 3 vertices, and every family builds at 3
        parser.error("--n takes vertex counts of 3 or more")
    if args.seeds is not None and args.preset != "range":
        parser.error("only range takes --seeds")
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds takes 1 or more")
    with tempfile.TemporaryDirectory() as folder:
        code, document = sweep(sizes, Path(folder), args.seeds)
    print(json.dumps(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
