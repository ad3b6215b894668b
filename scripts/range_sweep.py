#!/usr/bin/env python3
"""Run every directed chain command over wide-weight digraphs, and print each run's exit status and first FAIL.

Two shapes, each written as an edge list and run through ``cli.main``
in-process:

- ``cycle``: the directed cycle 0 -> 1 -> ... -> n-1 -> 0 plus 3n arcs with
  uniform endpoints (self-loops and parallel arcs kept as they fall), every
  arc weighted 10^U(-d, d), for d in {0, 3, 6} and seeds 0-19;
- ``holding``: the holding cycle, an arc of weight 1 from k to k + 1 and a
  self-loop of weight s_k = 10^U(-d, d) at every vertex k, for d in {3, 6}
  and seeds 0-9.

Every graph is drawn from ``numpy.random.default_rng(seed)`` and run with
``--lazy`` 0 and 0.5 through hitting, green, exitfreq, mixing, dual and
verify. Each run prints one line: the shape, d, seed, laziness, command,
exit status and the name of the first ``FAIL`` line on stderr ("-" when there
is none). Run counts per exit status and per first FAIL follow, then both as
one JSON line. The sweep reports failures and does not judge them: it exits 0.

Usage: python3 scripts/range_sweep.py [--n N] [--seeds K] [--holding-seeds K]
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from greenwalk.cli import main as cli_main

N = 40
COMMANDS = ["hitting", "green", "exitfreq", "mixing", "dual", "verify"]
LAZY = ["0", "0.5"]


def cycle_edges(n: int, seed: int, decades: int) -> str:
    """The directed cycle plus 3n uniform arcs, weighted 10^U(-d, d)."""
    rng = np.random.default_rng(seed)
    extra = 3 * n
    src = [*range(n), *rng.integers(0, n, extra).tolist()]
    dst = [*((k + 1) % n for k in range(n)), *rng.integers(0, n, extra).tolist()]
    weights = 10.0 ** rng.uniform(-decades, decades, n + extra)
    return "".join(f"{i} {j} {w!r}\n" for i, j, w in zip(src, dst, weights.tolist()))


def holding_edges(n: int, seed: int, decades: int) -> str:
    """The holding cycle: k -> k + 1 with weight 1, and a self-loop of weight 10^U(-d, d) at k."""
    loops = 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, n)
    return "".join(f"{k} {(k + 1) % n} 1.0\n{k} {k} {s!r}\n" for k, s in enumerate(loops.tolist()))


SHAPES = {"cycle": cycle_edges, "holding": holding_edges}


def first_fail(err: str) -> str:
    """The check named by the first FAIL line of stderr, the error kind for a run that failed otherwise, or '-'."""
    for line in err.splitlines():
        if line.startswith("FAIL "):
            return line[5:].split(":", 1)[0]
        if ":" in line:
            return line.split(":", 1)[0]
    return "-"


def run(argv: list[str]) -> tuple[int, str]:
    """The exit status of one in-process CLI run, and its first failing check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, first_fail(err.getvalue())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--seeds", type=int, default=20, help="seeds of the cycle shape")
    parser.add_argument("--holding-seeds", type=int, default=10, help="seeds of the holding cycle")
    args = parser.parse_args()

    shapes = [("cycle", d, args.seeds) for d in (0, 3, 6)] + [("holding", d, args.holding_seeds) for d in (3, 6)]
    exits, failures = Counter(), Counter()
    print(f"{'shape':>8}{'d':>3}{'seed':>5}{'lazy':>5}{'command':>9}{'exit':>5}  first FAIL")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "graph.edges"
        for shape, d, seeds in shapes:
            for seed in range(seeds):
                path.write_text(SHAPES[shape](args.n, seed, d))
                for lazy in LAZY:
                    for command in COMMANDS:
                        code, name = run([command, "--input", str(path), "--lazy", lazy])
                        exits[shape, d, code] += 1
                        if code:
                            failures[shape, d, command, name] += 1
                        print(f"{shape:>8}{d:>3}{seed:>5}{lazy:>5}{command:>9}{code:>5}  {name}")

    print("\nruns by exit status")
    for (shape, d, code), count in sorted(exits.items()):
        print(f"{shape:>8} d={d}  exit {code}: {count}")
    print("\nfailed runs by command and first FAIL")
    for (shape, d, command, name), count in sorted(failures.items()):
        print(f"{shape:>8} d={d}  {command:>8}  {name}: {count}")
    tables = {"exits": exits, "failures": failures}
    print(json.dumps({name: [[*key, count] for key, count in sorted(table.items())] for name, table in tables.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
